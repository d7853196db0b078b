// Package smc implements the paper's Stream Memory Controller: a Stream
// Buffer Unit (SBU) of per-stream FIFOs between the processor and memory,
// and a Memory Scheduling Unit (MSU) that prefetches read streams, buffers
// write streams, and reorders the memory accesses to maximize effective
// bandwidth (§3).
//
// The processor drains/fills the FIFO heads in the computation's natural
// order at the matched bandwidth of one 64-bit word per t_PACK/w_p cycles;
// the MSU services one FIFO at a time, performing as many accesses as
// possible for the current FIFO before moving on (the paper's round-robin
// policy), or using one of the extension policies the paper's §6 sketches.
// The processor's timing never depends on data values, so its model
// (frontEnd) moves FIFO heads and a clock, capturing each read value it
// pops; the kernel's arithmetic runs once per iteration, when the
// processor pushes the iteration's first store. Each FIFO keeps its
// per-element state in rings of at least its depth, as the SBU's hardware
// FIFOs hold at most f elements, so a run's FIFO state does not grow
// with the stream's length.
package smc

import (
	"math/bits"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
)

// group is one DATA-packet's worth of stream traffic: the packet a set of
// consecutive stream elements maps to. For unit strides a group carries two
// elements; for larger strides one. A packet carries WordsPerPacket words,
// so the word offsets fit inline.
type group struct {
	loc      addrmap.Loc                 // packet coordinates (Word is 0)
	elo, ehi int                         // element index range [elo, ehi) served by this packet
	words    [rdram.WordsPerPacket]uint8 // word-within-packet of element elo+j, ascending
}

// n is the number of elements the group serves.
func (g *group) n() int { return g.ehi - g.elo }

// sameRowAs reports whether two groups address the same open row.
func (g *group) sameRowAs(o *group) bool {
	return g.loc.Bank == o.loc.Bank && g.loc.Row == o.loc.Row
}

// planner yields a stream's packet groups in element order, on demand:
// cur is the group the MSU issues next, and next, the one after it, is
// the lookahead the closed-page precharge and the speculative activate
// decide on. Direct RDRAM transfers whole 128-bit packets, so the groups
// are the device accesses the MSU performs for the stream. Planning two
// groups at a time keeps a FIFO's plan at a fixed size whatever the
// stream's length, as the SBU's hardware FIFOs are (§3).
//
// A stream's strides are positive, so its packets only ever move up.
// The planner maps a packet only when it leaves the interleave unit
// (addrmap.Mapper.InStripe) the last mapping covered: inside a unit the
// words are consecutive words of one page, so a packet's column is the
// unit's first column plus its packet offset. Element addresses advance
// by the stride.
type planner struct {
	st        stream.Stream
	m         *addrmap.Mapper
	elem      int   // first element not yet in cur or next
	addr      int64 // address of element elem
	cur, next group

	// The interleave unit last mapped: packets from unitAt up to unitEnd
	// sit at consecutive columns of page (bank, row) from column col.
	unitAt, unitEnd int64
	bank, row, col  int
}

// reset starts planning st from its first element, mapping under m.
func (p *planner) reset(st stream.Stream, m *addrmap.Mapper) {
	p.st, p.m, p.elem, p.addr = st, m, 0, st.Base
	p.unitAt, p.unitEnd = 0, 0
	p.plan(&p.cur)
	p.plan(&p.next)
}

// more reports whether the stream has a packet left to issue.
func (p *planner) more() bool { return p.cur.ehi > p.cur.elo }

// lookahead returns the group after cur, or nil when cur is the last.
func (p *planner) lookahead() *group {
	if p.next.ehi > p.next.elo {
		return &p.next
	}
	return nil
}

// advance retires cur: next becomes cur, and the group after it is
// planned.
// rdlint:hotpath
func (p *planner) advance() {
	p.cur = p.next
	p.plan(&p.next)
}

// plan fills g with the group of the packet holding element p.elem and
// the elements after it that share the packet; at the end of the stream
// g is left empty.
// rdlint:hotpath
func (p *planner) plan(g *group) {
	g.elo = p.elem
	if p.elem < p.st.Length {
		pkt := addrmap.PacketAddr(p.addr)
		if pkt >= p.unitEnd {
			p.mapUnit(pkt)
		}
		g.loc = addrmap.Loc{Bank: p.bank, Row: p.row, Col: p.col + int(pkt-p.unitAt)/rdram.WordsPerPacket}
		for n := 0; n < rdram.WordsPerPacket && p.elem < p.st.Length && p.addr-pkt < rdram.WordsPerPacket; n++ {
			g.words[n] = uint8(p.addr - pkt)
			p.elem++
			p.addr += p.st.Stride
		}
	}
	g.ehi = p.elem
}

// mapUnit maps packet address pkt and the rest of its interleave unit.
// It panics with the mapper's message on an address outside the device.
// rdlint:hotpath
func (p *planner) mapUnit(pkt int64) {
	row, off := p.m.Stripe(pkt)
	bank, w, n := p.m.InStripe(off)
	p.unitAt, p.unitEnd = pkt, pkt+int64(n)
	p.bank, p.row, p.col = bank, row, w/rdram.WordsPerPacket
}

const unscheduled = int64(-1)

// ringSize is the length of a FIFO's rings: the power of two at or above
// depth, so that element e's slot is e&(ringSize-1).
func ringSize(depth int) int { return 1 << bits.Len(uint(depth-1)) }

// readFIFO is the SBU buffer for one read stream. The MSU fills the slots
// of arriving elements; the CPU pops them in order from the
// memory-mapped head. At most depth elements sit between fetch and pop,
// so element e's state lives in slot e&mask of rings of at least depth
// slots.
type readFIFO struct {
	plan planner // the packets the MSU fetches

	avail  []int64  // ring: arrival time (DataEnd) of each fetched element
	values []uint64 // ring: each fetched element's value
	mask   int      // ring length - 1
	popped int      // elements the CPU has consumed

	issued int // elements fetched or in flight
	depth  int

	retry retryState
}

// canFetch reports whether the MSU may issue the next packet for this
// stream without overflowing the FIFO.
func (f *readFIFO) canFetch() bool {
	return f.plan.more() && f.issued-f.popped+f.plan.cur.n() <= f.depth
}

// headAvail returns when the CPU's next element is (or will be) available,
// or unscheduled if the MSU has not fetched it yet.
// rdlint:hotpath
func (f *readFIFO) headAvail() int64 {
	if f.popped >= f.issued {
		return unscheduled
	}
	return f.avail[f.popped&f.mask]
}

// writeFIFO is the SBU buffer for one write stream. The CPU pushes
// stores in order, each with its computed value; the MSU drains whole
// packets to memory. At most depth elements sit between push and drain,
// so element e's state lives in slot e&mask of rings of at least depth
// slots.
type writeFIFO struct {
	plan planner // the packets the MSU drains

	pushedAt []int64  // ring: push completion time of each pushed element
	values   []uint64 // ring: each pushed element's store value
	drainAt  []int64  // ring: DataEnd of each drained element
	mask     int      // ring length - 1

	pushed  int // elements the CPU has stored
	drained int // elements drained or in flight
	depth   int

	retry retryState
}

// retryState is a FIFO's transient-rejection backoff: after the device
// refuses an access under fault injection, the FIFO sits out until retryAt
// while the MSU services other streams, with the delay doubling per
// consecutive rejection (capped) so a persistent fault cannot monopolize
// the scheduler. The engine watchdog bounds total livelock.
type retryState struct {
	at      int64 // earliest cycle the next presentation may happen (0 = none)
	rejects int   // consecutive rejections of the pending access
}

// blocked reports whether the FIFO is still backing off at time now.
func (r retryState) blocked(now int64) bool { return r.at > now }

// onReject schedules the next presentation after a rejection at time now.
func (r *retryState) onReject(now, tPack int64) {
	shift := r.rejects
	if shift > 5 {
		shift = 5
	}
	r.at = now + tPack<<shift
	r.rejects++
}

// onAccept clears the backoff after a successful presentation.
func (r *retryState) onAccept() { r.at, r.rejects = 0, 0 }

// canDrain reports whether the next packet's elements have all been pushed.
func (f *writeFIFO) canDrain() bool {
	return f.plan.more() && f.pushed >= f.plan.cur.ehi
}

// drainReady is the earliest time the next packet's data is in the FIFO.
// rdlint:hotpath
func (f *writeFIFO) drainReady() int64 {
	return f.pushedAt[(f.plan.cur.ehi-1)&f.mask]
}

// slotFreeAt returns the earliest time the CPU can push its next element:
// immediately if the FIFO has room, otherwise when the MSU drains the
// oldest occupant.
// rdlint:hotpath
func (f *writeFIFO) slotFreeAt() int64 {
	if f.pushed < f.depth {
		return 0
	}
	if idx := f.pushed - f.depth; idx < f.drained {
		return f.drainAt[idx&f.mask]
	}
	return unscheduled // FIFO full and the freeing drain not yet issued
}
