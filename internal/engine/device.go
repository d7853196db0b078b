package engine

import (
	"strconv"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
)

// cursorStripes is how many stripes a Cursor holds: one per stream of a
// walk that interleaves streams (StoreValues' loads, the line issuer's
// write read-merges), with room for the paper's seven-read, one-write
// experiment.
const cursorStripes = 8

// Cursor maps word addresses to device locations and reads and writes
// device memory by word address without advancing time. Loc is pure
// arithmetic: the address's stripe, row r of every bank
// (addrmap.Mapper.Stripe), then its bank and word by index arithmetic
// (Mapper.InStripe), with no lookup, so a walk that jumps anywhere pays
// the same. The stripes a Cursor holds cache pages only: Peek and the
// walks (seg, chunk) fetch a bank's page from the device on the first
// data access to it, so banks a walk never reads or writes get no page.
// It holds the last few stripes, replacing the least recently used, so
// walks that interleave several streams keep each one's pages. On a
// timing-only device Peek returns 0. A Cursor is a value: the zero value
// is unusable, NewCursor builds one, and a copy must not be used once the
// original has touched data (the two would share page slots). It holds
// its mapper by value, so a run that embeds a Cursor builds no mapper of
// its own on the heap.
type Cursor struct {
	dev     *rdram.Device
	m       addrmap.Mapper
	stripes [cursorStripes]cursorStripe
	last    int    // the stripe the latest address fell in, checked first
	clock   uint64 // stamps stripes for least-recently-used replacement
	// slab holds the stripes' page slots, Banks per stripe: bank b's page
	// of stripe s is slab[s.base+b], nil until first touched. It is
	// allocated on the first data access and kept across reset.
	slab [][]uint64
}

// cursorStripe is one stripe a Cursor holds: addresses [lo, hi), row row
// of every bank, with page slots from slab[base].
type cursorStripe struct {
	lo, hi int64
	row    int
	base   int
	used   uint64 // the cursor's clock when this stripe was last found
}

// NewCursor builds a cursor over dev's memory under a copy of mapper m.
func NewCursor(dev *rdram.Device, m *addrmap.Mapper) Cursor {
	return Cursor{dev: dev, m: *m}
}

// reset points c at dev and a copy of m and empties it, keeping its
// slab's backing.
func (c *Cursor) reset(dev *rdram.Device, m *addrmap.Mapper) {
	c.dev, c.m = dev, *m
	c.stripes = [cursorStripes]cursorStripe{}
	c.last, c.clock = 0, 0
	c.slab = c.slab[:0]
}

// find returns the stripe holding addr, mapping it over the least
// recently used one when no stripe does. It panics with the mapper's
// message on an address outside the device.
// rdlint:hotpath
func (c *Cursor) find(addr int64) *cursorStripe {
	if s := &c.stripes[c.last]; addr >= s.lo && addr < s.hi {
		return s
	}
	c.clock++
	victim := 0
	for i := range c.stripes {
		s := &c.stripes[i]
		if addr >= s.lo && addr < s.hi {
			s.used, c.last = c.clock, i
			return s
		}
		if s.used < c.stripes[victim].used {
			victim = i
		}
	}
	row, off := c.m.Stripe(addr)
	s := &c.stripes[victim]
	s.lo = addr - int64(off)
	s.hi = s.lo + int64(c.m.StripeWords())
	s.row = row
	s.base = victim * c.m.Banks()
	s.used, c.last = c.clock, victim
	if len(c.slab) > 0 {
		clear(c.slab[s.base : s.base+c.m.Banks()])
	}
	return s
}

// page returns bank's page in stripe s, fetching it from the device on
// first touch; nil on a timing-only device.
// rdlint:hotpath
func (c *Cursor) page(s *cursorStripe, bank int) []uint64 {
	if len(c.slab) == 0 {
		if c.dev.TimingOnly() {
			return nil
		}
		c.allocSlab()
	}
	p := c.slab[s.base+bank]
	if p == nil {
		p = c.dev.Page(bank, s.row)
		c.slab[s.base+bank] = p
	}
	return p
}

// allocSlab sizes the slab for every stripe's page slots, all empty,
// reusing its backing when that is large enough.
func (c *Cursor) allocSlab() {
	n := cursorStripes * c.m.Banks()
	if cap(c.slab) < n {
		c.slab = make([][]uint64, n)
	}
	c.slab = c.slab[:n]
	clear(c.slab)
}

// seg returns the words of addr's interleave unit (see
// addrmap.Mapper.InStripe) from addr to the unit's end, in stripe s: word
// j of the result is address addr+j. The walks move data a unit at a
// time through it. It panics on a timing-only device, which has no words.
// rdlint:hotpath
func (c *Cursor) seg(s *cursorStripe, addr int64) []uint64 {
	bank, w, n := c.m.InStripe(int(addr - s.lo))
	return c.page(s, bank)[w : w+n]
}

// Loc returns addr's device location, as Mapper.Map does, and panics
// with the mapper's message on an address outside the device.
// rdlint:hotpath
func (c *Cursor) Loc(addr int64) addrmap.Loc {
	row, off := c.m.Stripe(addr)
	bank, w, _ := c.m.InStripe(off)
	return addrmap.Loc{Bank: bank, Row: row, Col: w / rdram.WordsPerPacket, Word: w % rdram.WordsPerPacket}
}

// Peek returns the word stored at addr.
// rdlint:hotpath
func (c *Cursor) Peek(addr int64) uint64 {
	s := c.find(addr)
	bank, w, _ := c.m.InStripe(int(addr - s.lo))
	if p := c.page(s, bank); p != nil {
		return p[w]
	}
	return 0
}

// chunk returns the stripe holding element i of st, mapping it if need
// be, and n >= 1: elements i, i+1, ..., i+n-1 all lie in that stripe and
// in one image page, so a walk over them looks both up once. A stride
// longer than the stripe or the image page gives chunks of one element;
// strides of any sign are handled.
// rdlint:hotpath
func (c *Cursor) chunk(st *stream.Stream, i int) (*cursorStripe, int) {
	addr := st.Addr(i)
	s := c.find(addr)
	return s, span(st, i, max(s.lo, addr&^imageMask), min(s.hi, addr|imageMask+1))
}

// Attach declares the controller's default idle cause to the device and
// wires a telemetry collector, if any, onto it, returning the controller
// probe (nil collector returns nil, and the nil-safe probes make that
// free). The device keeps its own counters and stall attribution on every
// run; for a collector it also keeps them per window of the collector's
// Window, and with event capture on, a hook chained onto the device's
// packet trace (after any hook already there) records every packet on
// its bank's track.
func Attach(dev *rdram.Device, col *telemetry.Collector, idle telemetry.StallCause) *telemetry.ControllerProbe {
	dev.SetIdleCause(idle)
	if col == nil {
		return nil
	}
	dev.Windows = telemetry.Windows{Width: col.Window}
	if events := col.Events; events != nil {
		// One track name per bank, formatted once, so recording a packet
		// formats nothing.
		tracks := make([]string, dev.Config().Geometry.Banks)
		for b := range tracks {
			tracks[b] = "bank " + strconv.Itoa(b)
		}
		prev := dev.Trace
		dev.Trace = func(ev rdram.TraceEvent) {
			if prev != nil {
				prev(ev)
			}
			events.Append(telemetry.Event{Track: tracks[ev.Bank], Name: ev.Kind.EventName(), Start: ev.Start, End: ev.End})
		}
	}
	return col.Controller
}
