package engine

import (
	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
)

// cursorStripes is how many stripes a Cursor holds: one per stream of a
// walk that interleaves streams (StoreValues' loads, natural order's
// lines), with room for the paper's seven-read, one-write experiment.
const cursorStripes = 8

// Cursor maps word addresses to device locations and reads and writes
// device memory by word address without advancing time. Its unit is the
// stripe, row r of every bank (addrmap.Mapper.Stripe): it pays for the
// address map once per stripe, finds each word in it by index arithmetic
// (Mapper.InStripe), and fetches a bank's page from the device on the
// first data access to it, so banks a walk never reads or writes get no
// page. It holds the last few stripes, replacing the least recently used,
// so walks that interleave several streams keep each one's. On a
// timing-only device Peek returns 0. A Cursor is a value: the zero value
// is unusable, NewCursor builds one, and a copy must not be used once the
// original has touched data (the two would share page slots).
type Cursor struct {
	dev     *rdram.Device
	m       *addrmap.Mapper
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

// NewCursor builds a cursor over dev's memory under mapper m.
func NewCursor(dev *rdram.Device, m *addrmap.Mapper) Cursor {
	return Cursor{dev: dev, m: m}
}

// reset points c at dev and m and empties it, keeping its slab's backing.
func (c *Cursor) reset(dev *rdram.Device, m *addrmap.Mapper) {
	c.dev, c.m = dev, m
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

// Loc returns addr's device location, as Mapper.Map does.
// rdlint:hotpath
func (c *Cursor) Loc(addr int64) addrmap.Loc {
	s := c.find(addr)
	bank, w, _ := c.m.InStripe(int(addr - s.lo))
	return addrmap.Loc{Bank: bank, Row: s.row, Col: w / rdram.WordsPerPacket, Word: w % rdram.WordsPerPacket}
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
// wires a telemetry collector, if any, onto the device's packet trace
// hook (after any hook already there), returning the controller probe
// (nil collector returns nil, and the nil-safe probes make that free).
// The device keeps its own counters and stall attribution on every run;
// the collector adds bus series and event capture.
func Attach(dev *rdram.Device, col *telemetry.Collector, idle telemetry.StallCause) *telemetry.ControllerProbe {
	dev.SetIdleCause(idle)
	if col == nil {
		return nil
	}
	p := col.Device
	p.SetBanks(dev.Config().Geometry.Banks)
	prev := dev.Trace
	dev.Trace = func(ev rdram.TraceEvent) {
		if prev != nil {
			prev(ev)
		}
		pk := packetKinds[ev.Kind]
		p.OnPacket(pk.bus, pk.name, ev.Bank, ev.Start, ev.End)
	}
	return col.Controller
}

// packetKinds gives each device packet kind its bus and its telemetry
// event name.
var packetKinds = [...]struct {
	bus  telemetry.Bus
	name string
}{
	rdram.TraceActivate:  {telemetry.RowBus, "ACT"},
	rdram.TracePrecharge: {telemetry.RowBus, "PRER"},
	rdram.TraceReadCol:   {telemetry.ColBus, "COL RD"},
	rdram.TraceWriteCol:  {telemetry.ColBus, "COL WR"},
	rdram.TraceRetire:    {telemetry.ColBus, "RET"},
	rdram.TraceReadData:  {telemetry.DataBus, "DATA rd"},
	rdram.TraceWriteData: {telemetry.DataBus, "DATA wr"},
}

// Window models the device's bounded pipeline of outstanding transactions
// (the Direct RDRAM supports four): a transaction may not be presented
// before the one `limit` positions back has completed. Completion times
// live in a fixed ring of limit entries — only the last limit matter, and
// the append-forever slice this replaced grew with the run length.
type Window struct {
	done []int64 // ring: done[n%limit] completed transaction n-limit
	n    int     // transactions completed so far
}

// NewWindow builds a window admitting up to limit concurrent transactions;
// limit must be positive.
func NewWindow(limit int) *Window {
	if limit <= 0 {
		panic("engine: Window limit must be positive")
	}
	return &Window{done: make([]int64, limit)}
}

// Admit returns the earliest time a new transaction may be presented, no
// earlier than at.
func (w *Window) Admit(at int64) int64 {
	if w.n >= len(w.done) {
		at = max(at, w.done[w.n%len(w.done)])
	}
	return at
}

// Complete records an admitted transaction's completion time. Calls must
// be in admission order.
func (w *Window) Complete(t int64) {
	w.done[w.n%len(w.done)] = t
	w.n++
}
