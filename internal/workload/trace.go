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
	// limit of four; a depth outside [0, 4] is an error).
	Outstanding int
	// Reorder enables SMC-style access reordering: within a sliding
	// window of pending line transactions, row hits issue before row
	// misses. The window bounds the wait: no transaction is passed over
	// more than Window-1 times, so none starves.
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
	lines, err := engine.NewLines(dev, opt.Scheme, opt.LineWords, opt.Outstanding)
	if err != nil {
		return engine.Result{}, err
	}
	engine.Attach(dev, opt.Telemetry, telemetry.StallNoRequest)

	// Check every address before the device sees any.
	capacity := lines.Mapper().CapacityWords()
	for i, a := range accs {
		if a.Addr < 0 || a.Addr >= capacity {
			return engine.Result{}, fmt.Errorf("workload: trace access %d address %d exceeds device capacity %d", i, a.Addr, capacity)
		}
	}

	// Coalesce the word stream into line transactions through a one-line
	// buffer: consecutive same-line accesses are absorbed; the first
	// access's op decides the transaction's direction. Under CLI
	// auto-precharge closes every row behind its line, so the reordering
	// scheduler never sees an open row to chase and issues in trace
	// order: the in-order loop is the same schedule without the scan.
	lw := int64(opt.LineWords)
	if !opt.Reorder || lines.ClosedPage {
		var buf lineBuffer
		for _, a := range accs {
			if !buf.next(a.Addr, lw) {
				continue
			}
			if _, err := lines.Issue(0, lines.Loc(buf.lo), a.Write, nil); err != nil {
				return engine.Result{}, err
			}
		}
	} else if err := reorder(&lines, accs, lw, opt.Window); err != nil {
		return engine.Result{}, err
	}
	return lines.Result(int64(len(accs))), nil
}

// lineBuffer is the one-line buffer trace accesses coalesce through:
// the line's words are addresses [lo, hi), empty when lo == hi. Only an
// access outside the buffered line pays to find its line, and a
// power-of-two line (every line the paper uses) pays a mask, not a
// division.
type lineBuffer struct{ lo, hi int64 }

// next reports whether addr starts a new transaction, one outside the
// buffered line, and if so buffers addr's lw-word line.
func (b *lineBuffer) next(addr, lw int64) bool {
	if addr >= b.lo && addr < b.hi {
		return false
	}
	if lw&(lw-1) == 0 {
		b.lo = addr &^ (lw - 1)
	} else {
		b.lo = addr - addr%lw
	}
	b.hi = b.lo + lw
	return true
}

// txn is one coalesced cacheline transaction of a reordered trace: where
// its first packet lives, its direction, and whether it has issued.
type txn struct {
	loc    addrmap.Loc
	write  bool
	issued bool
}

// reorder issues the line transactions of accs through lines
// row-hit-first, the SMC's bank heuristic applied to an arbitrary trace:
// each issue takes the first transaction in the window — the oldest
// unissued one (the head) and those up to window-1 (0 = 32) places after
// it — whose row is open in its bank, or the head when none is. The
// scheduler keeps its own open-row model of the device's banks; the caller
// takes the auto-precharge case, where it has no row hits to chase, to
// the in-order loop. Deterministic: a pure function of the transaction
// list, no randomness, no map iteration.
//
// The window also bounds starvation: a transaction is passed over only
// by picks from the window it heads or trails, which lie within the
// window-1 places after it, so it waits out at most window-1 issues and
// needs no separate deferral limit.
func reorder(lines *engine.Lines, accs []TraceAccess, lw int64, window int) error {
	// Count the transactions first, so the list is allocated once at its
	// size.
	n := 0
	var buf lineBuffer
	for _, a := range accs {
		if buf.next(a.Addr, lw) {
			n++
		}
	}
	txns := make([]txn, 0, n)
	buf = lineBuffer{}
	for _, a := range accs {
		if buf.next(a.Addr, lw) {
			txns = append(txns, txn{loc: lines.Loc(buf.lo), write: a.Write})
		}
	}
	w := window
	if w <= 0 {
		w = 32
	}
	open := make([]int, lines.Mapper().Banks())
	for b := range open {
		open[b] = -1
	}
	head := 0
	for remaining := len(txns); remaining > 0; remaining-- {
		for head < len(txns) && txns[head].issued {
			head++
		}
		pick := head
		for i, end := head, min(head+w, len(txns)); i < end; i++ {
			if t := &txns[i]; !t.issued && open[t.loc.Bank] == t.loc.Row {
				pick = i
				break
			}
		}
		t := &txns[pick]
		t.issued = true
		if _, err := lines.Issue(0, t.loc, t.write, nil); err != nil {
			return err
		}
		open[t.loc.Bank] = t.loc.Row
	}
	return nil
}
