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
	// Telemetry, when non-nil, records the device's bus series and the
	// controller's cacheline miss-latency histogram. With or without it,
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
	if cfg.LineWords <= 0 || cfg.LineWords%rdram.WordsPerPacket != 0 {
		return Result{}, fmt.Errorf("natorder: LineWords must be a positive multiple of %d, got %d", rdram.WordsPerPacket, cfg.LineWords)
	}
	if dev.Config().Geometry.PageWords%cfg.LineWords != 0 {
		return Result{}, fmt.Errorf("natorder: page size %d not a multiple of line size %d", dev.Config().Geometry.PageWords, cfg.LineWords)
	}
	if err := k.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Outstanding < 0 || cfg.Outstanding > rdram.MaxOutstanding {
		return Result{}, fmt.Errorf("natorder: Outstanding %d out of [0,%d]", cfg.Outstanding, rdram.MaxOutstanding)
	}
	if cfg.Outstanding == 0 {
		cfg.Outstanding = rdram.MaxOutstanding
	}
	mapper, err := addrmap.New(cfg.Scheme, dev.Config().Geometry, cfg.LineWords)
	if err != nil {
		return Result{}, err
	}

	s := &sim{dev: dev, mem: engine.NewCursor(dev, mapper), cfg: cfg, window: engine.NewWindow(cfg.Outstanding)}
	// The natural-order processor issues in order: the bus waits on the
	// previous iteration's operands, not on an absent request stream.
	s.ctl = engine.Attach(dev, cfg.Telemetry, telemetry.StallDependency)

	// Phase 1: functional execution, recording every store value in an
	// image (empty on a timing-only device, which stores no data).
	storeVals := engine.StoreValues(dev, mapper, k)
	defer storeVals.Release()

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
		err = s.runThroughCache(k, cc, storeVals)
	} else {
		err = s.run(k, storeVals)
	}
	if err != nil {
		return Result{}, err
	}

	st := dev.Stats()
	res := Result{
		Cycles:           st.LastDataEnd,
		UsefulWords:      int64(k.Iterations()) * int64(len(k.Streams)),
		TransferredWords: st.PacketCount() * rdram.WordsPerPacket,
		Device:           st,
	}
	res.Finalize(dev.Config().Timing.CyclesPerWordPeak())
	if cc != nil {
		res.CacheHitRate = cc.HitRate()
		_, _, _, res.DirtyWritebacks = cc.Stats()
	}
	return res, nil
}

type sim struct {
	dev *rdram.Device
	mem engine.Cursor // packet locations and read-merge words
	cfg Config

	cursor int64          // first-command time of the most recent transaction
	window *engine.Window // pipeline of outstanding transactions

	ctl *telemetry.ControllerProbe // nil when telemetry is off
}

// streamState tracks a stream's current cacheline during the timing phase.
type streamState struct {
	line      int64   // current cacheline index (-1 = none)
	pktStarts []int64 // DataStart of each packet of the current line (reads)
	dirty     bool    // write-allocate: line has been stored to
}

func (s *sim) run(k *stream.Kernel, storeVals *engine.Image) error {
	autoPre := s.cfg.closedPage()
	nr := k.ReadStreams()
	states := make([]streamState, len(k.Streams))
	for i := range states {
		states[i].line = -1
	}
	lw := int64(s.cfg.LineWords)

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
			line := addr / lw
			if st.line != line {
				st.line = line
				var err error
				st.pktStarts, err = s.fetchLine(line, max(s.cursor, prevDep), autoPre, st.pktStarts)
				if err != nil {
					return err
				}
			}
			pkt := int(addr%lw) / rdram.WordsPerPacket
			if ready := st.pktStarts[pkt]; ready > iterDep {
				iterDep = ready
			}
		}
		// Stores: at the first store to a new line, stream the whole line
		// out (or, under write-allocate, fetch it and write back the
		// evicted one).
		for w := nr; w < len(k.Streams); w++ {
			st := &states[w]
			addr := k.Streams[w].Addr(i)
			line := addr / lw
			if st.line == line {
				continue
			}
			prev := st.line
			st.line = line
			if s.cfg.WriteAllocate {
				if prev >= 0 && st.dirty {
					if err := s.writeLine(prev, s.cursor, autoPre, storeVals); err != nil {
						return err
					}
				}
				var err error
				st.pktStarts, err = s.fetchLine(line, max(s.cursor, iterDep), autoPre, st.pktStarts)
				if err != nil {
					return err
				}
				st.dirty = true
			} else {
				if err := s.writeLine(line, max(s.cursor, iterDep), autoPre, storeVals); err != nil {
					return err
				}
			}
		}
		prevDep = iterDep
	}
	if s.cfg.WriteAllocate {
		for w := nr; w < len(k.Streams); w++ {
			if st := &states[w]; st.line >= 0 && st.dirty {
				if err := s.writeLine(st.line, s.cursor, autoPre, storeVals); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// fetchLine reads every packet of a cacheline and returns each packet's
// DataStart (the linefill-forwarding availability times), appending into
// dst's backing so each stream reuses one buffer for the whole run.
// Transient device rejections under fault injection are retried with
// bounded backoff (engine.Issue); exhausting the retries fails the run.
func (s *sim) fetchLine(line, at int64, autoPre bool, dst []int64) ([]int64, error) {
	reqAt := at
	at = s.window.Admit(at)
	packets := s.cfg.LineWords / rdram.WordsPerPacket
	base := line * int64(s.cfg.LineWords)
	starts := dst[:0]
	var complete int64
	var res rdram.Result
	for p := 0; p < packets; p++ {
		loc := s.mem.Loc(base + int64(p*rdram.WordsPerPacket))
		req := rdram.Request{
			Bank: loc.Bank, Row: loc.Row, Col: loc.Col,
			AutoPrecharge: autoPre && p == packets-1,
		}
		if err := engine.Issue(s.dev, at, &req, &res); err != nil {
			return nil, err
		}
		if p == 0 {
			s.advanceCursor(&res)
			// Miss service latency as the processor sees it: request
			// presented (before the outstanding-transaction gate) to first
			// word forwarded.
			s.ctl.ObserveMissLatency(res.DataStart - reqAt)
		}
		starts = append(starts, res.DataStart)
		complete = res.DataEnd
	}
	s.window.Complete(complete)
	return starts, nil
}

// writeLine transmits a full cacheline of store data. Words the kernel
// never stores keep their prior memory contents (read-merge, free of
// charge, as in the paper's line-granularity store model), read at the
// packet's device location.
// rdlint:hotpath
func (s *sim) writeLine(line, at int64, autoPre bool, storeVals *engine.Image) error {
	at = s.window.Admit(at)
	packets := s.cfg.LineWords / rdram.WordsPerPacket
	base := line * int64(s.cfg.LineWords)
	var complete int64
	var res rdram.Result
	for p := 0; p < packets; p++ {
		addr := base + int64(p*rdram.WordsPerPacket)
		loc := s.mem.Loc(addr)
		req := rdram.Request{
			Bank: loc.Bank, Row: loc.Row, Col: loc.Col,
			Write:         true,
			AutoPrecharge: autoPre && p == packets-1,
		}
		for w := range req.Data {
			a := addr + int64(w)
			if v, ok := storeVals.Get(a); ok {
				req.Data[w] = v
			} else {
				req.Data[w] = s.mem.Peek(a)
			}
		}
		if err := engine.Issue(s.dev, at, &req, &res); err != nil {
			return err
		}
		if p == 0 {
			s.advanceCursor(&res)
		}
		complete = res.DataEnd
	}
	s.window.Complete(complete)
	return nil
}

// advanceCursor records the first command time of a transaction: the next
// natural-order request may not be presented to the memory before it.
func (s *sim) advanceCursor(res *rdram.Result) {
	first := res.ColIssue
	if res.ActIssue >= 0 {
		first = res.ActIssue
	}
	if res.PreIssue >= 0 {
		first = res.PreIssue
	}
	if first > s.cursor {
		s.cursor = first
	}
}
