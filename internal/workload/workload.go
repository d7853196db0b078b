// Package workload generates non-stream (random and mixed) cacheline
// access patterns and services them with a conventional pipelined
// controller. The paper's §6 attributes Crisp's reported ~95% Direct
// Rambus efficiency to "more random access patterns on a system with many
// devices", in contrast with the paper's single-device streaming study —
// this package lets that comparison be measured instead of asserted.
package workload

import (
	"fmt"
	"math/rand"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/engine"
	"rdramstream/internal/rdram"
)

// Pattern selects the address-generation behaviour.
type Pattern int

const (
	// Sequential touches consecutive cachelines — one long DMA-like sweep.
	Sequential Pattern = iota
	// RandomUniform picks cachelines uniformly over the footprint.
	RandomUniform
	// HotPages skews 90% of the accesses onto 10% of the pages (TLB-warm
	// application data), the rest uniform.
	HotPages
)

func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case RandomUniform:
		return "random"
	case HotPages:
		return "hot-pages"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Config describes one workload run.
type Config struct {
	Pattern   Pattern
	Requests  int // cacheline transactions to issue
	LineWords int
	Scheme    addrmap.Scheme
	// ReadFraction is the probability a transaction is a read (the rest
	// are full-line writes). Crisp's multimedia mixes are read-heavy.
	ReadFraction float64
	// FootprintLines bounds the address range touched (0 = 1/8 of the
	// device).
	FootprintLines int64
	// Outstanding is the controller's request pipeline depth (0 = the
	// Direct RDRAM limit of four).
	Outstanding int
	Seed        int64
}

// Result reports the serviced workload's performance.
type Result struct {
	Cycles      int64
	Lines       int64
	PercentPeak float64 // all transferred words count: these are demanded cachelines
	HitRate     float64 // device page-hit rate
	Device      rdram.Stats
}

// Run services the generated transactions in arrival order, pipelined up
// to the outstanding limit, with the scheme's precharge policy — the same
// conventional controller behaviour as the natural-order model but without
// inter-access dependences (independent masters, DMA engines, or a deep
// miss queue, as in Crisp's experiments).
func Run(dev *rdram.Device, cfg Config) (Result, error) {
	if cfg.Requests <= 0 {
		return Result{}, fmt.Errorf("workload: Requests must be positive, got %d", cfg.Requests)
	}
	if cfg.LineWords <= 0 || cfg.LineWords%rdram.WordsPerPacket != 0 {
		return Result{}, fmt.Errorf("workload: bad LineWords %d", cfg.LineWords)
	}
	if cfg.ReadFraction < 0 || cfg.ReadFraction > 1 {
		return Result{}, fmt.Errorf("workload: ReadFraction %v out of [0,1]", cfg.ReadFraction)
	}
	mapper, err := addrmap.New(cfg.Scheme, dev.Config().Geometry, cfg.LineWords)
	if err != nil {
		return Result{}, err
	}
	outstanding := cfg.Outstanding
	if outstanding <= 0 {
		outstanding = rdram.MaxOutstanding
	}
	footprint := cfg.FootprintLines
	if footprint <= 0 {
		footprint = mapper.CapacityWords() / int64(cfg.LineWords) / 8
	}
	maxLines := mapper.CapacityWords() / int64(cfg.LineWords)
	if footprint > maxLines {
		footprint = maxLines
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	linesPerPage := int64(dev.Config().Geometry.PageWords / cfg.LineWords)
	// The hot set spans eight pages — small enough that an open-page
	// policy keeps most of it in the sense amps.
	hotLines := 8 * linesPerPage
	if hotLines > footprint {
		hotLines = footprint
	}
	nextLine := func(i int) int64 {
		switch cfg.Pattern {
		case Sequential:
			return int64(i) % footprint
		case HotPages:
			if rng.Float64() < 0.9 {
				return rng.Int63n(hotLines)
			}
			return rng.Int63n(footprint)
		default:
			return rng.Int63n(footprint)
		}
	}

	ti := &traceIssuer{
		dev:     dev,
		mem:     engine.NewCursor(dev, mapper),
		window:  engine.NewWindow(outstanding),
		packets: cfg.LineWords / rdram.WordsPerPacket,
		autoPre: cfg.Scheme == addrmap.CLI,
	}
	lw := int64(cfg.LineWords)
	for i := 0; i < cfg.Requests; i++ {
		loc := ti.mem.Loc(nextLine(i) * lw)
		if err := ti.issue(loc, rng.Float64() >= cfg.ReadFraction); err != nil {
			return Result{}, err
		}
	}

	st := dev.Stats()
	res := Result{
		Cycles:  st.LastDataEnd,
		Lines:   int64(cfg.Requests),
		HitRate: st.HitRate(),
		Device:  st,
	}
	res.PercentPeak = engine.PercentOfPeak(st.PacketCount()*rdram.WordsPerPacket, res.Cycles, dev.Config().Timing.CyclesPerWordPeak())
	return res, nil
}
