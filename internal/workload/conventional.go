package workload

import (
	"rdramstream/internal/engine"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
)

// conventional registers this package's pipelined controller as a
// kernel-level policy: cacheline transactions in program order, pipelined
// to the outstanding window, with no inter-access dependence gating — the
// "many independent masters" behaviour of Crisp's experiments applied to
// the paper's stream kernels. Comparing it against "natural-order" (same
// transactions, dependence-gated) isolates how much of the baseline's loss
// is the in-order dependence wait rather than the access pattern.
type conventional struct{}

func init() { engine.Register(conventional{}) }

func (conventional) Name() string { return "conventional" }

func (conventional) Run(dev *rdram.Device, k *stream.Kernel, opt engine.Options) (engine.Result, error) {
	if err := k.Validate(); err != nil {
		return engine.Result{}, err
	}
	lines, err := engine.NewLines(dev, opt.Scheme, opt.LineWords, 0)
	if err != nil {
		return engine.Result{}, err
	}
	engine.Attach(dev, opt.Telemetry, telemetry.StallNoRequest)

	// Write lines carry the run's golden image (nil: no computed data).
	lines.Store = opt.Store

	// Cacheline transactions in program order, each stream filtered
	// through its own one-line buffer, admitted as fast as the pipeline
	// window allows. A stream's line start is divided out only when its
	// address leaves the current line.
	lw := int64(opt.LineWords)
	current := make([]int64, len(k.Streams)) // each stream's line start
	for i := range current {
		current[i] = -lw
	}
	nr := k.ReadStreams()
	for i := 0; i < k.Iterations(); i++ {
		for s := range k.Streams {
			addr := k.Streams[s].Addr(i)
			if uint64(addr-current[s]) < uint64(lw) {
				continue
			}
			current[s] = addr / lw * lw
			if _, err := lines.Issue(0, lines.Loc(current[s]), s >= nr, nil); err != nil {
				return engine.Result{}, err
			}
		}
	}
	return lines.Result(int64(k.Iterations()) * int64(len(k.Streams))), nil
}
