// Package natorder simulates the paper's baseline: a traditional memory
// controller that services streaming loads and stores as cacheline
// transactions issued in the computation's natural order (§5.1, Figures 5
// and 6).
//
// The model follows the paper's optimistic assumptions:
//
//   - The cache controller supports linefill-buffer forwarding, so the CPU
//     can use a word as soon as its DATA packet starts arriving; a store is
//     initiated as soon as the operands of its iteration are available.
//   - A store transmits its full cacheline directly to memory at the first
//     store to that line; there is no write-allocate fetch and no
//     conflict-induced dirty writeback (the paper's bounds "ignore the time
//     to write dirty cachelines back to memory"). Setting
//     Config.WriteAllocate models fetch-on-store-miss plus
//     eviction-writeback instead, as an ablation.
//   - Transactions issue strictly in program order, pipelined up to the
//     Direct RDRAM's limit of four outstanding requests.
//
// The simulation runs in two phases: a functional phase computes every
// store value with the kernel's golden semantics, then a timing phase
// replays the cacheline transactions against the device, writing those
// values, so the device's memory image afterwards is exact.
package natorder

import (
	"fmt"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/cache"
	"rdramstream/internal/engine"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
)

// Config selects the memory organization and the store policy.
type Config struct {
	// Scheme pairs the interleaving with its precharge policy as in the
	// paper: CLI uses closed-page (auto-precharge), PI uses open-page.
	Scheme addrmap.Scheme
	// LineWords is the cacheline size in 64-bit words (L_c).
	LineWords int
	// WriteAllocate, when true, fetches a store-missed line from memory and
	// writes it back on eviction instead of streaming the store line
	// directly to memory.
	WriteAllocate bool
	// Cache, when non-nil, routes every access through a real
	// set-associative write-back cache instead of the paper's ideal
	// per-stream line buffers: conflict misses refetch lines and dirty
	// evictions write back — the effects the paper's §6 notes are "beyond
	// the scope of this study". Its LineWords must equal Config.LineWords.
	// Cache overrides WriteAllocate.
	Cache *cache.Config
	// Outstanding caps the pipelined cacheline transactions in flight
	// (0 = the Direct RDRAM limit of four). One models a fully blocking
	// miss path; values above four exceed what the device pipeline
	// supports and are rejected.
	Outstanding int
	// Policy overrides the scheme's default precharge policy, to explore
	// the two pairings the paper excludes (CLI+open, PI+closed).
	Policy PagePolicy
	// Telemetry, when non-nil, has the device keep its counters per
	// window and records the controller's cacheline miss-latency
	// histogram. With or without it,
	// idle DATA-bus cycles before each transaction are attributed to the
	// in-order dependency wait (telemetry.StallDependency).
	Telemetry *telemetry.Collector
}

// PagePolicy selects the precharge behaviour after each cacheline burst.
type PagePolicy int

const (
	// PairedPolicy follows the paper: closed-page for CLI, open-page for
	// PI.
	PairedPolicy PagePolicy = iota
	// ForceClosed precharges after every burst regardless of scheme.
	ForceClosed
	// ForceOpen leaves pages open regardless of scheme.
	ForceOpen
)

func (p PagePolicy) String() string {
	switch p {
	case PairedPolicy:
		return "paired"
	case ForceClosed:
		return "closed"
	case ForceOpen:
		return "open"
	default:
		return fmt.Sprintf("PagePolicy(%d)", int(p))
	}
}

// closedPage resolves the effective policy.
func (c Config) closedPage() bool {
	switch c.Policy {
	case ForceClosed:
		return true
	case ForceOpen:
		return false
	default:
		return c.Scheme == addrmap.CLI
	}
}

// DefaultConfig returns the paper's CLI configuration with 32-byte lines.
func DefaultConfig() Config {
	return Config{Scheme: addrmap.CLI, LineWords: 4}
}

// Result is the common controller outcome (see engine.Result); Cycles is
// the cycle after the last DATA packet, and CacheHitRate/DirtyWritebacks
// are populated when Config.Cache is set (the realistic-cache mode).
type Result = engine.Result

// Run simulates kernel k over the device through a natural-order cacheline
// controller and returns timing plus bandwidth results. The device's
// functional contents are read and written, so callers can verify the
// computation afterwards.
func Run(dev *rdram.Device, k *stream.Kernel, cfg Config) (Result, error) {
	if err := k.Validate(); err != nil {
		return Result{}, err
	}
	s := &sim{lw: int64(cfg.LineWords)}
	var err error
	if s.lines, err = engine.NewLines(dev, cfg.Scheme, cfg.LineWords, cfg.Outstanding); err != nil {
		return Result{}, err
	}
	s.spare = make([]int64, cfg.LineWords/rdram.WordsPerPacket)
	s.lines.ClosedPage = cfg.closedPage()
	// The natural-order processor issues in order: the bus waits on the
	// previous iteration's operands, not on an absent request stream.
	s.ctl = engine.Attach(dev, cfg.Telemetry, telemetry.StallDependency)

	// Phase 1: functional execution, recording every store value in an
	// image (empty on a timing-only device, which stores no data).
	s.lines.Store = engine.StoreValues(dev, s.lines.Mapper(), k)
	defer s.lines.Store.Release()

	// Phase 2: timed replay of the cacheline transactions in natural
	// order.
	var cc *cache.Cache
	if cfg.Cache != nil {
		if cfg.Cache.LineWords != cfg.LineWords {
			return Result{}, fmt.Errorf("natorder: cache line %d != controller line %d", cfg.Cache.LineWords, cfg.LineWords)
		}
		cc, err = cache.New(*cfg.Cache)
		if err != nil {
			return Result{}, err
		}
		err = s.runThroughCache(k, cc)
	} else {
		err = s.run(k, cfg.WriteAllocate)
	}
	if err != nil {
		return Result{}, err
	}

	res := s.lines.Result(int64(k.Iterations()) * int64(len(k.Streams)))
	if cc != nil {
		res.CacheHitRate = cc.HitRate()
		_, _, _, res.DirtyWritebacks = cc.Stats()
	}
	return res, nil
}

type sim struct {
	lines engine.Lines
	lw    int64   // line size in words
	spare []int64 // the packet times of store lines, which nothing reads

	// cursor is the latest first-command time of any transaction: the
	// next natural-order request may not be presented to the memory
	// before it.
	cursor int64

	ctl *telemetry.ControllerProbe // nil when telemetry is off
}

// streamState tracks a stream's current cacheline during the timing phase.
type streamState struct {
	line      int64   // current cacheline index (-1 = none)
	pktStarts []int64 // DataStart of each packet of the current line (reads)
	dirty     bool    // write-allocate: line has been stored to
}

func (s *sim) run(k *stream.Kernel, writeAllocate bool) error {
	nr := k.ReadStreams()
	packets := int(s.lw) / rdram.WordsPerPacket
	states := make([]streamState, len(k.Streams))
	starts := make([]int64, len(k.Streams)*packets)
	for i := range states {
		states[i].line = -1
		states[i].pktStarts = starts[i*packets : (i+1)*packets]
	}

	// prevDep is the time the previous iteration's operands became
	// available. The paper's processor issues in order with a window of
	// about one iteration: iteration i+1's requests do not reach the
	// memory before iteration i's operands have started arriving (this is
	// what exposes t_RAC once per cacheline round in Eq 5.2-5.4 and in
	// Figure 5's timing).
	var prevDep int64
	for i := 0; i < k.Iterations(); i++ {
		// Reads first (kernel validation guarantees the order): fetch any
		// newly touched lines and note when this iteration's operands
		// arrive via linefill forwarding.
		var iterDep int64
		for r := 0; r < nr; r++ {
			st := &states[r]
			addr := k.Streams[r].Addr(i)
			line := addr / s.lw
			if st.line != line {
				st.line = line
				if err := s.fetch(line, max(s.cursor, prevDep), st.pktStarts); err != nil {
					return err
				}
			}
			pkt := int(addr%s.lw) / rdram.WordsPerPacket
			if ready := st.pktStarts[pkt]; ready > iterDep {
				iterDep = ready
			}
		}
		// Stores: at the first store to a new line, stream the whole line
		// out (or, under write-allocate, fetch it and write back the
		// evicted one).
		for w := nr; w < len(k.Streams); w++ {
			st := &states[w]
			line := k.Streams[w].Addr(i) / s.lw
			if st.line == line {
				continue
			}
			prev := st.line
			st.line = line
			if !writeAllocate {
				if err := s.store(line, max(s.cursor, iterDep)); err != nil {
					return err
				}
				continue
			}
			if prev >= 0 && st.dirty {
				if err := s.store(prev, s.cursor); err != nil {
					return err
				}
			}
			if err := s.fetch(line, max(s.cursor, iterDep), st.pktStarts); err != nil {
				return err
			}
			st.dirty = true
		}
		prevDep = iterDep
	}
	if writeAllocate {
		for w := nr; w < len(k.Streams); w++ {
			if st := &states[w]; st.line >= 0 && st.dirty {
				if err := s.store(st.line, s.cursor); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// fetch reads a cacheline, presented at at, writing each packet's
// DataStart (the linefill-forwarding availability times) into starts.
// Transient device rejections under fault injection are retried with
// bounded backoff (engine.Issue); exhausting the retries fails the run.
func (s *sim) fetch(line, at int64, starts []int64) error {
	first, err := s.lines.Issue(at, s.lines.Loc(line*s.lw), false, starts)
	if err != nil {
		return err
	}
	s.cursor = max(s.cursor, first)
	// Miss service latency as the processor sees it: request presented
	// (before the outstanding-transaction gate) to first word forwarded.
	s.ctl.ObserveMissLatency(starts[0] - at)
	return nil
}

// store transmits a full cacheline of store data, presented at at;
// words the kernel never stores keep their prior memory contents (the
// issuer's read-merge).
func (s *sim) store(line, at int64) error {
	first, err := s.lines.Issue(at, s.lines.Loc(line*s.lw), true, s.spare)
	if err != nil {
		return err
	}
	s.cursor = max(s.cursor, first)
	return nil
}
