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
	Seed         int64
}

// Run services the generated transactions in arrival order over 1/8 of
// the device, pipelined up to the Direct RDRAM's four outstanding
// requests, with the scheme's precharge policy — the same conventional
// controller behaviour as the natural-order model but without
// inter-access dependences (independent masters, DMA engines, or a deep
// miss queue, as in Crisp's experiments). Every line moved is demanded,
// so the Result's UsefulWords equals its TransferredWords.
func Run(dev *rdram.Device, cfg Config) (engine.Result, error) {
	if cfg.Requests <= 0 {
		return engine.Result{}, fmt.Errorf("workload: Requests must be positive, got %d", cfg.Requests)
	}
	if cfg.ReadFraction < 0 || cfg.ReadFraction > 1 {
		return engine.Result{}, fmt.Errorf("workload: ReadFraction %v out of [0,1]", cfg.ReadFraction)
	}
	lines, err := engine.NewLines(dev, cfg.Scheme, cfg.LineWords, 0)
	if err != nil {
		return engine.Result{}, err
	}
	footprint := lines.Mapper().CapacityWords() / int64(cfg.LineWords) / 8

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

	lw := int64(cfg.LineWords)
	for i := 0; i < cfg.Requests; i++ {
		loc := lines.Loc(nextLine(i) * lw)
		if _, err := lines.Issue(0, loc, rng.Float64() >= cfg.ReadFraction, nil); err != nil {
			return engine.Result{}, err
		}
	}
	st := dev.Stats()
	return engine.NewResult(dev, st.LastDataEnd, st.PacketCount()*rdram.WordsPerPacket), nil
}
