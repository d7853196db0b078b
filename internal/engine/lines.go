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
// one mapping (Loc) serves all its packets: Issue steps the column. Like
// Cursor, a Lines is a value built by NewLines and must not be copied
// once it has issued.
type Lines struct {
	// ClosedPage sets auto-precharge on each line's last packet. NewLines
	// sets it under CLI, the paper's pairing; natural order's page policy
	// overrides it.
	ClosedPage bool
	// Store, when non-nil, holds the values write packets carry (see
	// StoreValues); words it lacks are read from the device, a free
	// read-merge as in the paper's line-granularity store model. With no
	// Store a write carries no data: the timing-only replays.
	Store *Image

	dev     *rdram.Device
	mem     Cursor // holds the run's mapper
	window  Window
	packets int
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
// admits. A line never leaves its page, so its packets are loc's
// successive columns; each goes through the engine's retry loop
// (Issue), and the line's completion enters the window. When starts is
// non-nil, starts[p] receives packet p's DataStart (natural order's
// linefill forwarding) and Issue returns the cycle of the line's first
// command (the first packet's PRER, ACT or COL, whichever it needed
// first), which natural order's in-order cursor follows; with nil
// starts it returns 0.
//
// rdlint:hotpath
func (l *Lines) Issue(at int64, loc addrmap.Loc, write bool, starts []int64) (int64, error) {
	at = l.window.Admit(at)
	req := rdram.Request{Bank: loc.Bank, Row: loc.Row, Col: loc.Col, Write: write}
	fill := write && l.Store != nil
	var base int64 // the line's first word, for the fill
	if fill {
		base = l.mem.m.Unmap(loc)
	}
	var res rdram.Result
	var first int64
	for p := 0; p < l.packets; p++ {
		req.AutoPrecharge = l.ClosedPage && p == l.packets-1
		if fill {
			l.fill(&req, base+int64(p*rdram.WordsPerPacket))
		}
		if err := Issue(l.dev, at, &req, &res); err != nil {
			return 0, err
		}
		if starts != nil {
			if p == 0 {
				first = res.ColIssue
				if res.ActIssue >= 0 {
					first = res.ActIssue
				}
				if res.PreIssue >= 0 {
					first = res.PreIssue
				}
			}
			starts[p] = res.DataStart
		}
		req.Col++
	}
	l.window.Complete(res.DataEnd)
	return first, nil
}

// fill sets the words of a write packet at addr from the Store, reading
// those it lacks from the device.
//
// rdlint:hotpath
func (l *Lines) fill(req *rdram.Request, addr int64) {
	for w := range req.Data {
		a := addr + int64(w)
		if v, ok := l.Store.Get(a); ok {
			req.Data[w] = v
		} else {
			req.Data[w] = l.mem.Peek(a)
		}
	}
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
