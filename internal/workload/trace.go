package workload

import (
	"fmt"
	"math/bits"

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
	// order: the in-order loop is the same schedule without the window.
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

// slot is one transaction of the reorder window: where its first packet
// lives, its direction, and whether it has issued.
type slot struct {
	loc    addrmap.Loc
	write  bool
	issued bool
}

// rowWindow is the reorder scheduler's state. The ring holds the
// transactions [head, tail) of the trace's line sequence, at most w of
// them, transaction i in slot i mod w, so walking the slots from the
// head's, wrapping at w, is walking the window in sequence order.
//
// A bit set over the slots, hit, marks the unissued slots whose row is
// open in their bank: the pick is its first set bit from the head's.
// Each bank keeps a record of stride words: its open row in the
// scheduler's model (the row of the last transaction it issued there)
// at bankOpen, as uint64(row), ^0 (-1) for none, and from bankSlots a
// bit set marking its unissued slots. An issue that moves a bank's open
// row therefore revisits that bank's slots alone.
type rowWindow struct {
	slots  []slot
	hit    []uint64
	banks  []uint64 // bank b's record is banks[b*stride : (b+1)*stride]
	stride int
}

// Word offsets in a bank's record.
const (
	bankOpen  = 0
	bankSlots = 1
)

// newRowWindow allocates the state of a w-slot window over a device of
// nbanks banks: the slots, and one array for the hit bits and the bank
// records, whose rows start closed.
func newRowWindow(w, nbanks int) rowWindow {
	nw := (w + 63) / 64
	stride := bankSlots + nw
	words := make([]uint64, nw+nbanks*stride)
	q := rowWindow{
		slots:  make([]slot, w),
		hit:    words[:nw:nw],
		banks:  words[nw:],
		stride: stride,
	}
	for b := 0; b < nbanks; b++ {
		q.banks[b*stride+bankOpen] = ^uint64(0) // int(^uint64(0)) == -1
	}
	return q
}

// bank returns the record of bank b.
func (q *rowWindow) bank(b int) []uint64 {
	return q.banks[b*q.stride : (b+1)*q.stride : (b+1)*q.stride]
}

// add puts transaction loc, write into slot s, marked a hit if its row
// is open.
//
// rdlint:hotpath
func (q *rowWindow) add(s int, loc addrmap.Loc, write bool) {
	// Field by field: a composite literal goes through the stack, and
	// the copy reads it back wider than it was written, which stalls.
	t := &q.slots[s]
	t.loc, t.write, t.issued = loc, write, false
	bit := uint64(1) << (s & 63)
	b := q.bank(loc.Bank)
	b[bankSlots+s>>6] |= bit
	if int(b[bankOpen]) == loc.Row {
		q.hit[s>>6] |= bit
	}
}

// issued marks slot s issued, drops it from the bit sets, and moves its
// bank's open row to its row. When the row changes, the bank's hits, all
// on the old row, clear, and the bank's slots on the new row set.
//
// rdlint:hotpath
func (q *rowWindow) issued(s int) {
	t := &q.slots[s]
	t.issued = true
	row := t.loc.Row
	b := q.bank(t.loc.Bank)
	slots := b[bankSlots:]
	bit := uint64(1) << (s & 63)
	q.hit[s>>6] &^= bit
	slots[s>>6] &^= bit
	if int(b[bankOpen]) == row {
		return
	}
	b[bankOpen] = uint64(row)
	for j, m := range slots {
		var hits uint64
		for x := m; x != 0; x &= x - 1 {
			if k := bits.TrailingZeros64(x); q.slots[j<<6+k].loc.Row == row {
				hits |= 1 << k
			}
		}
		q.hit[j] = q.hit[j]&^m | hits
	}
}

// pick returns the slot to issue when the window's head is slot h: the
// first row hit at or after h in sequence order, or h when no slot
// hits. Bits past h's word wrap to the ring's first word; every set bit
// is an unissued transaction of the window, so the first one found in
// that order is the oldest hit.
//
// rdlint:hotpath
func (q *rowWindow) pick(h int) int {
	i := h >> 6
	if x := q.hit[i] >> (h & 63); x != 0 {
		return h + bits.TrailingZeros64(x)
	}
	for j := i + 1; j < len(q.hit); j++ {
		if x := q.hit[j]; x != 0 {
			return j<<6 + bits.TrailingZeros64(x)
		}
	}
	// The wrapped part, slots 0 through h-1; the bits of word i at and
	// after h were found clear above.
	for j := 0; j <= i; j++ {
		if x := q.hit[j]; x != 0 {
			return j<<6 + bits.TrailingZeros64(x)
		}
	}
	return h
}

// reorder issues the line transactions of accs through lines
// row-hit-first, the SMC's bank heuristic applied to an arbitrary trace:
// each issue takes the first transaction in the window — the oldest
// unissued one (the head) and those up to window-1 (0 = 32) places after
// it — whose row is open in its bank, or the head when none is. The
// scheduler keeps its own open-row model of the device's banks; the caller
// takes the auto-precharge case, where it has no row hits to chase, to
// the in-order loop. Deterministic: a pure function of the transaction
// sequence, no randomness, no map iteration.
//
// The coalescer feeds the window on demand, so the scheduler holds at
// most window transactions, and never more than the trace has, and finds
// its pick in the hit bits instead of walking the window (see rowWindow).
//
// The window also bounds starvation: a transaction is passed over only
// by picks from the window it heads or trails, which lie within the
// window-1 places after it, so it waits out at most window-1 issues and
// needs no separate deferral limit.
func reorder(lines *engine.Lines, accs []TraceAccess, lw int64, window int) error {
	w := window
	if w <= 0 {
		w = 32
	}
	// A window that spans the whole trace picks as any deeper one would,
	// so the ring needs no more slots than the trace has transactions.
	w = countLines(accs, lw, w)
	q := newRowWindow(w, lines.Mapper().Banks())
	var buf lineBuffer
	next := 0                  // the next access the coalescer reads
	head, tail := 0, 0         // the window is transactions [head, tail)
	headSlot, tailSlot := 0, 0 // their slots, head mod w and tail mod w
	for {
		for tail-head < w && next < len(accs) {
			a := accs[next]
			next++
			if !buf.next(a.Addr, lw) {
				continue
			}
			q.add(tailSlot, lines.Loc(buf.lo), a.Write)
			tail++
			if tailSlot++; tailSlot == w {
				tailSlot = 0
			}
		}
		if head == tail {
			return nil
		}
		s := q.pick(headSlot)
		t := &q.slots[s]
		if _, err := lines.Issue(0, t.loc, t.write, nil); err != nil {
			return err
		}
		q.issued(s)
		for head < tail && q.slots[headSlot].issued {
			head++
			if headSlot++; headSlot == w {
				headSlot = 0
			}
		}
	}
}

// countLines returns the number of line transactions accs coalesces
// into, or limit if there are at least that many; it reads only as far
// as the limit-th transaction.
func countLines(accs []TraceAccess, lw int64, limit int) int {
	var buf lineBuffer
	n := 0
	for _, a := range accs {
		if buf.next(a.Addr, lw) {
			if n++; n == limit {
				break
			}
		}
	}
	return n
}
