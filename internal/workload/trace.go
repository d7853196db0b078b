package workload

import (
	"fmt"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/engine"
	"rdramstream/internal/rdram"
	"rdramstream/internal/telemetry"
)

// TraceAccess is one request of an externally supplied address trace.
// The json tags pin its spelling inside scenario JSON (tracegen.Spec
// carries a []TraceAccess on the wire).
//
// rdlint:wire — trace accesses ride inside scenario JSON.
type TraceAccess struct {
	// Addr is the 64-bit-word address.
	Addr int64 `json:"addr"`
	// Write marks a store; the zero value is a load.
	Write bool `json:"write,omitempty"`
}

// TraceOptions configures ReplayTrace.
type TraceOptions struct {
	Scheme    addrmap.Scheme
	LineWords int
	// Outstanding is the request pipeline depth (0 = the Direct RDRAM
	// limit of four).
	Outstanding int
	// Reorder enables SMC-style access reordering: within a sliding
	// window of pending line transactions, row hits issue before row
	// misses, bounded by a deferral limit so no transaction starves.
	// Off, transactions issue in trace order — the natural-order
	// baseline.
	Reorder bool
	// Window is the reorder window depth in transactions (0 = 32, the
	// default SBU depth). Ignored without Reorder.
	Window int
	// Telemetry, when non-nil, records the replay's bus series and
	// events. Pure observer; the device attributes idle cycles before
	// each transaction to StallNoRequest either way, like the
	// conventional controller.
	Telemetry *telemetry.Collector
}

// ReplayTrace services a word-level access trace and returns the
// engine-level result the sim layer wraps into an Outcome. Consecutive
// same-line accesses coalesce into one cacheline transaction through a
// one-line buffer; with Reorder off the transactions issue in trace
// order, pipelined to the outstanding window. UsefulWords counts the
// demanded trace words; TransferredWords counts whole cachelines moved.
func ReplayTrace(dev *rdram.Device, opt TraceOptions, accs []TraceAccess) (engine.Result, error) {
	if len(accs) == 0 {
		return engine.Result{}, fmt.Errorf("workload: empty trace")
	}
	if opt.LineWords <= 0 || opt.LineWords%rdram.WordsPerPacket != 0 {
		return engine.Result{}, fmt.Errorf("workload: bad LineWords %d", opt.LineWords)
	}
	outstanding := opt.Outstanding
	if outstanding <= 0 {
		outstanding = rdram.MaxOutstanding
	}
	if outstanding > rdram.MaxOutstanding {
		return engine.Result{}, fmt.Errorf("workload: Outstanding %d exceeds device limit %d", outstanding, rdram.MaxOutstanding)
	}
	mapper, err := addrmap.New(opt.Scheme, dev.Config().Geometry, opt.LineWords)
	if err != nil {
		return engine.Result{}, err
	}
	engine.Attach(dev, opt.Telemetry, telemetry.StallNoRequest)

	// Coalesce the word stream into line transactions through a one-line
	// buffer: consecutive same-line accesses are absorbed; the first
	// access's op decides the transaction's direction.
	capacity := mapper.CapacityWords()
	var txns []txn
	lastLine := int64(-1)
	for i, a := range accs {
		if a.Addr < 0 || a.Addr >= capacity {
			return engine.Result{}, fmt.Errorf("workload: trace access %d address %d exceeds device capacity %d", i, a.Addr, capacity)
		}
		line := a.Addr / int64(opt.LineWords)
		if line == lastLine {
			continue
		}
		lastLine = line
		txns = append(txns, txn{line: line, write: a.Write})
	}

	autoPre := opt.Scheme == addrmap.CLI
	ti := &traceIssuer{
		dev:       dev,
		mem:       engine.NewCursor(dev, mapper),
		window:    engine.NewWindow(outstanding),
		lineWords: opt.LineWords,
		packets:   opt.LineWords / rdram.WordsPerPacket,
		autoPre:   autoPre,
	}

	if !opt.Reorder {
		for _, t := range txns {
			if err := ti.issue(t); err != nil {
				return engine.Result{}, err
			}
		}
	} else {
		// Row-hit-first reordering over a sliding window, the SMC's bank
		// heuristic applied to an arbitrary trace. The scheduler keeps its
		// own open-row model (auto-precharge closes the row, so under CLI
		// it degenerates to trace order, which is correct — there are no
		// row hits to chase). Deterministic: a pure function of the
		// transaction list, no randomness, no map iteration.
		w := opt.Window
		if w <= 0 {
			w = 32
		}
		maxDefer := 4 * w
		banks := make([]int, len(txns))
		rows := make([]int, len(txns))
		for i, t := range txns {
			loc := ti.mem.Loc(t.line * int64(opt.LineWords))
			banks[i], rows[i] = loc.Bank, loc.Row
		}
		open := make([]int, dev.Config().Geometry.Banks)
		for b := range open {
			open[b] = -1
		}
		issued := make([]bool, len(txns))
		defers := make([]int, len(txns))
		head := 0
		for remaining := len(txns); remaining > 0; remaining-- {
			for head < len(txns) && issued[head] {
				head++
			}
			end := min(head+w, len(txns))
			pick := head
			if defers[head] < maxDefer {
				for i := head; i < end; i++ {
					if !issued[i] && open[banks[i]] == rows[i] {
						pick = i
						break
					}
				}
			}
			for i := head; i < pick; i++ {
				if !issued[i] {
					defers[i]++
				}
			}
			issued[pick] = true
			if err := ti.issue(txns[pick]); err != nil {
				return engine.Result{}, err
			}
			if autoPre {
				open[banks[pick]] = -1
			} else {
				open[banks[pick]] = rows[pick]
			}
		}
	}

	st := dev.Stats()
	res := engine.Result{
		Cycles:           st.LastDataEnd,
		UsefulWords:      int64(len(accs)),
		TransferredWords: st.PacketCount() * rdram.WordsPerPacket,
		Device:           st,
	}
	res.Finalize(dev.Config().Timing.CyclesPerWordPeak())
	return res, nil
}

// txn is one coalesced cacheline transaction of a trace.
type txn struct {
	line  int64
	write bool
}

// traceIssuer carries the per-transaction issue state so the inner
// loop is a named method the allocation lint can police, instead of a
// closure. Trace replay and the generated workloads of Run share it.
type traceIssuer struct {
	dev       *rdram.Device
	mem       engine.Cursor // packet locations
	window    *engine.Window
	lineWords int
	packets   int
	autoPre   bool
}

// issue services one line transaction packet by packet: admit into the
// outstanding-access window, issue each packet through the engine's
// retry loop, and record the completion time. This runs once per
// transaction for the whole trace — the replay inner loop.
//
// rdlint:hotpath
func (ti *traceIssuer) issue(t txn) error {
	at := ti.window.Admit(0)
	base := t.line * int64(ti.lineWords)
	var complete int64
	for p := 0; p < ti.packets; p++ {
		loc := ti.mem.Loc(base + int64(p*rdram.WordsPerPacket))
		res, err := engine.Issue(ti.dev, at, rdram.Request{
			Bank: loc.Bank, Row: loc.Row, Col: loc.Col,
			Write:         t.write,
			AutoPrecharge: ti.autoPre && p == ti.packets-1,
		})
		if err != nil {
			return err
		}
		complete = res.DataEnd
	}
	ti.window.Complete(complete)
	return nil
}
