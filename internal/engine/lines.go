package engine

import (
	"fmt"
	"math"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
)

// Lines is the one cacheline-transaction path: the paper's §5.1
// baseline moves whole cachelines in program order, pipelined up to the
// device's limit of outstanding requests, and natural order, the
// conventional controller, trace replay and the Crisp workloads all
// issue their lines through Issue. It owns the run's mapper, Cursor and
// pipeline Window. A line never leaves its page under either scheme, so
// one mapping (Loc) serves all its packets, and Issue hands the device
// the whole line, its packets being the page's successive columns, in
// one call (rdram.Device.AttemptLine). Like Cursor, a Lines is a value
// built by NewLines and must not be copied once it has issued.
type Lines struct {
	// ClosedPage sets auto-precharge on each line's last packet. NewLines
	// sets it under CLI, the paper's pairing; natural order's page policy
	// overrides it.
	ClosedPage bool
	// Store, when non-nil, holds the values write packets carry: the
	// run's golden image (Image.Replay), whose words are the seeded ones
	// plus every final stored value. Words it lacks are read from the
	// device, a free read-merge as in the paper's line-granularity store
	// model. With no Store a write carries no data: the timing-only runs
	// and replays.
	Store *Image

	dev     *rdram.Device
	mem     Cursor // holds the run's mapper
	window  Window
	packets int
	// req is the line Issue presents and res what the device reports on
	// it, both reused in place: a Request literal built on Issue's stack
	// cost a copy on every line.
	req rdram.Request
	res rdram.Result
}

// NewLines builds the line issuer of one run over dev: lineWords-word
// lines under scheme, at most outstanding transactions in flight. Zero
// outstanding means the device limit, rdram.MaxOutstanding; any value
// outside [0, MaxOutstanding] is an error, as is a line the mapper
// rejects (not a whole number of packets, or not dividing the page).
func NewLines(dev *rdram.Device, scheme addrmap.Scheme, lineWords, outstanding int) (Lines, error) {
	if outstanding < 0 || outstanding > rdram.MaxOutstanding {
		return Lines{}, fmt.Errorf("engine: Outstanding %d out of [0, %d]", outstanding, rdram.MaxOutstanding)
	}
	if outstanding == 0 {
		outstanding = rdram.MaxOutstanding
	}
	m, err := addrmap.New(scheme, dev.Config().Geometry, lineWords)
	if err != nil {
		return Lines{}, err
	}
	return Lines{
		ClosedPage: scheme == addrmap.CLI,
		dev:        dev,
		mem:        NewCursor(dev, &m),
		window:     NewWindow(outstanding),
		packets:    lineWords / rdram.WordsPerPacket,
	}, nil
}

// Mapper returns the run's address mapper.
func (l *Lines) Mapper() *addrmap.Mapper { return &l.mem.m }

// Loc returns the device location of addr, a line's first word (see
// Cursor.Loc): what Issue takes. Mapping is arithmetic alone, so a
// caller maps each line once, as it issues it or ahead of time.
func (l *Lines) Loc(addr int64) addrmap.Loc { return l.mem.Loc(addr) }

// Issue services the line at loc (a line's first word, from Loc),
// presented no earlier than at and no earlier than the pipeline window
// admits. The device places the line's packets, loc's successive
// columns, in one call (rdram.Device.AttemptLine). A packet the fault
// injector rejects is retried alone through the engine's backoff loop
// (Issue), and the packets after it are presented again at the line's
// presentation cycle, so every packet sees the presentations, and the
// injector the draws, it would if each went through Issue in turn. The
// line's completion enters the window. When starts is non-nil, starts[p]
// receives packet p's DataStart (natural order's linefill forwarding).
// Issue returns the cycle of the line's first command (the first
// packet's PRER, ACT or COL, whichever it needed first), which natural
// order's in-order cursor follows.
//
// rdlint:hotpath
func (l *Lines) Issue(at int64, loc addrmap.Loc, write bool, starts []int64) (int64, error) {
	at = l.window.Admit(at)
	req := &l.req
	req.Bank, req.Row, req.Col, req.Write, req.AutoPrecharge = loc.Bank, loc.Row, loc.Col, write, l.ClosedPage
	var data []uint64 // a write's words; nil writes zeros (none on a timing-only device)
	if write && l.Store != nil && !l.dev.TimingOnly() {
		data = l.fill(l.mem.m.Unmap(loc))
	}
	res := &l.res
	placed := l.dev.AttemptLine(at, req, res, l.packets, data, starts)
	first, end := res.FirstCommand(), res.DataEnd
	for p := placed; p < l.packets; {
		// The device rejected packet p at at: retry it alone as Issue
		// would have after that first presentation, then present the
		// rest at at.
		pkt := *req
		pkt.Col = loc.Col + p
		pkt.AutoPrecharge = l.ClosedPage && p == l.packets-1
		if data != nil {
			copy(pkt.Data[:], data[p*rdram.WordsPerPacket:])
		}
		if err := issueFrom(l.dev, at, &pkt, res, 2); err != nil {
			return 0, err
		}
		if p == 0 {
			first = res.FirstCommand()
		}
		if starts != nil {
			starts[p] = res.DataStart
		}
		end = res.DataEnd
		if p++; p == l.packets {
			break
		}
		req.Col = loc.Col + p
		if placed = l.dev.AttemptLine(at, req, res, l.packets-p, tail(data, p*rdram.WordsPerPacket), tail(starts, p)); placed > 0 {
			end = res.DataEnd
		}
		p += placed
	}
	l.window.Complete(end)
	return first, nil
}

// tail returns s[i:], or nil for a nil s.
func tail[T any](s []T, i int) []T {
	if s == nil {
		return nil
	}
	return s[i:]
}

// fill returns the words of a write line whose first word is addr: the
// Store's, and the device's where the Store lacks them. The words live
// in the Store's line buffer, overwritten by the next fill.
//
// rdlint:hotpath
func (l *Lines) fill(addr int64) []uint64 {
	buf := l.Store.lineBuf(l.packets * rdram.WordsPerPacket)
	for w := range buf {
		a := addr + int64(w)
		if v, ok := l.Store.Get(a); ok {
			buf[w] = v
		} else {
			buf[w] = l.mem.Peek(a)
		}
	}
	return buf
}

// Result is the run's Result: it lasted until the last DATA packet
// ended and consumed useful words.
func (l *Lines) Result(useful int64) Result {
	return NewResult(l.dev, l.dev.Stats().LastDataEnd, useful)
}

// Window models the device's bounded pipeline of outstanding transactions
// (the Direct RDRAM supports four): a transaction may not be presented
// before the one `limit` positions back has completed. Completion times
// live in a fixed ring of limit entries, since only the last limit
// matter. The ring starts full of math.MinInt64, completions that bind
// nothing, so Admit needs no count of completions, and a wrap index
// picks the slot without a division.
type Window struct {
	done []int64 // ring of the last limit completion times
	next int     // slot of the oldest completion, which the next overwrites
}

// NewWindow builds a window admitting up to limit concurrent transactions;
// limit must be positive.
func NewWindow(limit int) Window {
	if limit <= 0 {
		panic("engine: Window limit must be positive")
	}
	w := Window{done: make([]int64, limit)}
	for i := range w.done {
		w.done[i] = math.MinInt64
	}
	return w
}

// Admit returns the earliest time a new transaction may be presented, no
// earlier than at.
func (w *Window) Admit(at int64) int64 {
	return max(at, w.done[w.next])
}

// Complete records an admitted transaction's completion time. Calls must
// be in admission order.
func (w *Window) Complete(t int64) {
	w.done[w.next] = t
	if w.next++; w.next == len(w.done) {
		w.next = 0
	}
}
