package engine

import (
	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
)

// cursorRuns is how many runs a Cursor holds: one per stream of a walk
// that interleaves streams (StoreValues' loads, natural order's lines),
// enough for the paper's kernels, whose widest reads three streams and
// writes a fourth.
const cursorRuns = 4

// Cursor maps word addresses to device locations and reads and writes
// device memory by word address without advancing time. It pays for the
// address map once per run (addrmap.Mapper.Run: the rest of a cacheline
// under CLI, of a page under PI) and for the device's page lookup once
// per run that touches data, instead of once per word: every later
// address inside a run it holds costs an index. It holds the last few
// runs, so walks that interleave a handful of streams keep each one's.
// On a timing-only device Peek returns 0 and Poke stores nothing. A
// Cursor is a value: the zero value is unusable, NewCursor builds one.
type Cursor struct {
	dev  *rdram.Device
	m    *addrmap.Mapper
	runs [cursorRuns]cursorRun
	last int // the run the latest address fell in, checked first
	next int // the run the next miss replaces, round robin
}

// cursorRun is one run a Cursor holds: addresses [lo, hi) at consecutive
// words of page (bank, row), starting at in-page word at.
type cursorRun struct {
	lo, hi    int64
	bank, row int
	at        int
	page      []uint64 // the page's words, fetched on first data access
}

// NewCursor builds a cursor over dev's memory under mapper m.
func NewCursor(dev *rdram.Device, m *addrmap.Mapper) Cursor {
	return Cursor{dev: dev, m: m}
}

// find returns the run holding addr, mapping a new one over the oldest
// when none does, and addr's in-page word index. It panics with the
// mapper's message on an address outside the device.
// rdlint:hotpath
func (c *Cursor) find(addr int64) (*cursorRun, int) {
	if r := &c.runs[c.last]; addr >= r.lo && addr < r.hi {
		return r, r.at + int(addr-r.lo)
	}
	for i := range c.runs {
		if r := &c.runs[i]; addr >= r.lo && addr < r.hi {
			c.last = i
			return r, r.at + int(addr-r.lo)
		}
	}
	loc, n := c.m.Run(addr)
	i := c.next
	c.next = (i + 1) % cursorRuns
	c.last = i
	r := &c.runs[i]
	r.lo, r.hi = addr, addr+int64(n)
	r.bank, r.row = loc.Bank, loc.Row
	r.at = loc.Col*rdram.WordsPerPacket + loc.Word
	r.page = nil
	return r, r.at
}

// Loc returns addr's device location, as Mapper.Map does.
// rdlint:hotpath
func (c *Cursor) Loc(addr int64) addrmap.Loc {
	r, w := c.find(addr)
	return addrmap.Loc{Bank: r.bank, Row: r.row, Col: w / rdram.WordsPerPacket, Word: w % rdram.WordsPerPacket}
}

// Peek returns the word stored at addr.
// rdlint:hotpath
func (c *Cursor) Peek(addr int64) uint64 {
	r, w := c.find(addr)
	if p := c.page(r); p != nil {
		return p[w]
	}
	return 0
}

// Poke stores v at addr.
// rdlint:hotpath
func (c *Cursor) Poke(addr int64, v uint64) {
	r, w := c.find(addr)
	if p := c.page(r); p != nil {
		p[w] = v
	}
}

// page returns r's device page, nil on a timing-only device.
// rdlint:hotpath
func (c *Cursor) page(r *cursorRun) []uint64 {
	if r.page == nil {
		r.page = c.dev.Page(r.bank, r.row)
	}
	return r.page
}

// StoreValues functionally executes the kernel and returns an image of
// every word it stores — the data a timing controller transmits on its
// write transactions. Loads read the image first, so loop-carried values
// are seen; unstored addresses read current device contents. A
// timing-only device stores no data, so there it returns an empty image
// without replaying the kernel: timing never depends on data values. The
// caller releases the image when its run returns.
func StoreValues(dev *rdram.Device, m *addrmap.Mapper, k *stream.Kernel) *Image {
	img := imagePool.Get().(*Image)
	if dev.TimingOnly() {
		img.Reset(nil)
		return img
	}
	img.Reset(k)
	cur := NewCursor(dev, m)
	k.Replay(
		func(addr int64) uint64 {
			if v, ok := img.Get(addr); ok {
				return v
			}
			return cur.Peek(addr)
		},
		img.Set,
	)
	return img
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
