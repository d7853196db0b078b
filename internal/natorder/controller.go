package natorder

import (
	"rdramstream/internal/engine"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
)

// controller adapts the natural-order model to the engine registry, so
// sim.Run and the sweep executor reach it by name.
type controller struct{}

func init() { engine.Register(controller{}) }

func (controller) Name() string { return "natural-order" }

func (controller) Run(dev *rdram.Device, k *stream.Kernel, opt engine.Options) (engine.Result, error) {
	return Run(dev, k, Config{
		Scheme:        opt.Scheme,
		LineWords:     opt.LineWords,
		WriteAllocate: opt.WriteAllocate,
		Store:         opt.Store,
		Cache:         opt.Cache,
		Telemetry:     opt.Telemetry,
	})
}
