package rdram

import (
	"fmt"

	"rdramstream/internal/telemetry"
)

// Request asks the device to transfer one DATA packet (two 64-bit words).
//
// Bank/Row/Col address the packet: Col is the packet index within the page
// (0 .. PageWords/WordsPerPacket - 1). The caller decides the precharge
// policy: AutoPrecharge models a closed-page policy (the bank is precharged
// immediately after the column access); leaving it false models an
// open-page policy (the sense amps stay open until a conflicting activate
// or an explicit PrechargeBank).
type Request struct {
	Bank, Row, Col int
	Write          bool
	AutoPrecharge  bool
	// Data holds the words to store for a write request.
	Data [WordsPerPacket]uint64
}

// Result reports when each packet of a request occupied its bus.
// Times are absolute interface-clock cycles. PreIssue/ActIssue are -1 when
// the request hit the open page and needed no row activity.
type Result struct {
	PreIssue  int64 // ROW PRER packet start (page conflict only)
	ActIssue  int64 // ROW ACT packet start (page miss only)
	ColIssue  int64 // COL RD/WR packet start
	DataStart int64 // first cycle of the DATA packet
	DataEnd   int64 // first cycle after the DATA packet
	PageHit   bool  // the access found its row already in the sense amps
	// Data holds the words fetched by a read request.
	Data [WordsPerPacket]uint64
}

type bankState struct {
	open       bool
	row        int
	rcdReady   int64 // earliest COL packet after the last ACT (t_RCD)
	lastColEnd int64 // end of the most recent COL packet (for t_CPOL)
	lastAct    int64 // start of the most recent ACT (for t_RC / t_RAS)
	preDone    int64 // cycle at which the last precharge completes (t_RP)
	everActed  bool
	chip       int // the chip on the channel holding this bank

	// ops counts the bank's operations; each event is counted here once,
	// and Device.Stats sums the banks.
	ops telemetry.BankCounters
}

// Device is a single Direct RDRAM chip: a set of banks with per-bank sense
// amplifiers behind shared ROW, COL, and DATA buses. It is a timing model
// and a functional store: reads return the data previously written.
//
// Device is not safe for concurrent use; the simulators drive it from a
// single goroutine.
type Device struct {
	cfg Config

	banks []bankState

	rowBusFree  int64 // next cycle the ROW command bus is free
	colBusFree  int64 // next cycle the COL command bus is free
	dataBusFree int64

	lastAct []int64 // most recent ACT per chip on the channel (t_RR)
	anyAct  []bool

	lastWriteDataEnd int64 // end of most recent write DATA packet (t_RW)
	anyWrite         bool

	pendingRetire []bool // per chip: a COL RET packet must precede the next read

	nextRefresh int64
	refreshBank int

	// The functional store. pageTable maps a page id
	// (bank*PagesPerBank + row) to 1 + its index in pages, 0 meaning the
	// page was never touched; it is nil until the first functional touch,
	// so a timing-only device allocates nothing.
	pageTable []int32
	pages     []storedPage // touched pages, in first-touch order
	pool      *PagePool    // optional recycler behind pageSlot
	noStore   bool         // timing-only mode: skip the functional store

	// Derived constants hoisted from the configuration at construction so
	// the per-access path does no geometry arithmetic: packetsPerPage for
	// checkAddr, tRAS for every precharge (Timing.TRAS has a value
	// receiver, and calling it through &d.cfg.Timing copies the whole
	// struct), and each bank's chip index (bankState.chip) for the
	// per-chip t_RR and write-retire state.
	packetsPerPage int
	tRAS           int64

	// stats holds the device-wide counters; the per-bank operation counts
	// live in bankState.ops. idleCause is the controller's declared reason
	// for DATA-bus idle time before the next request arrives (see
	// SetIdleCause).
	stats     Stats
	idleCause telemetry.StallCause

	// Trace, when non-nil, receives every packet the device schedules: the
	// Figure 5/6 style timelines, the protocol checker and a telemetry
	// Collector's event capture observe the device here. It is the one
	// per-packet hook; a Collector's series come from Windows.
	Trace func(ev TraceEvent)

	// Windows, once given a Width (a telemetry Collector does), also
	// counts every packet's bus cycles and every idle DATA-bus cycle per
	// window of that many cycles, each in the windows of its own cycles.
	// The zero value counts nothing.
	Windows telemetry.Windows

	// Faults, when non-nil, perturbs the device deterministically: transient
	// access rejections, bounded per-access timing jitter, and refresh-storm
	// cadence overrides. Nil (the default) is the nominal device; an
	// injector returning only zero AccessFaults is bit-identical to nil.
	Faults FaultInjector
}

// NewDevice builds a device from cfg. It panics on an invalid
// configuration; use cfg.Validate to check first when the configuration
// comes from outside the program.
func NewDevice(cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &Device{
		cfg:            cfg,
		banks:          make([]bankState, cfg.Geometry.Banks),
		lastAct:        make([]int64, cfg.Geometry.Devices()),
		anyAct:         make([]bool, cfg.Geometry.Devices()),
		pendingRetire:  make([]bool, cfg.Geometry.Devices()),
		packetsPerPage: cfg.Geometry.PageWords / WordsPerPacket,
		tRAS:           int64(cfg.Timing.TRAS()),
	}
	for b := range d.banks {
		d.banks[b].chip = b / cfg.Geometry.BanksPerDevice()
	}
	if cfg.RefreshInterval > 0 {
		d.nextRefresh = cfg.RefreshInterval
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns a copy of the device's counters, the per-bank operation
// counts summed over the banks.
func (d *Device) Stats() Stats {
	s := d.stats
	for i := range d.banks {
		o := &d.banks[i].ops
		s.Activates += o.Activates
		s.Precharges += o.Precharges
		s.Reads += o.Reads
		s.Writes += o.Writes
		s.PageHits += o.PageHits
		s.PageMisses += o.PageMisses
		s.PageConflicts += o.PageConflicts
		s.Retires += o.Retires
	}
	return s
}

// PerBank returns a copy of each bank's operation counters, indexed by
// bank; they sum to the matching Stats fields.
func (d *Device) PerBank() []telemetry.BankCounters {
	out := make([]telemetry.BankCounters, len(d.banks))
	for i := range d.banks {
		out[i] = d.banks[i].ops
	}
	return out
}

// SetIdleCause declares why the DATA bus is idle from the controller's
// point of view: idle cycles before the next request arrives are charged
// to c until it is changed. The zero state is StallNoRequest.
func (d *Device) SetIdleCause(c telemetry.StallCause) { d.idleCause = c }

// ChargeStall attributes the idle DATA-bus cycles [from, to), which fall
// outside every access's gap — the SMC's CPU tail after the final DATA
// packet — to c.
func (d *Device) ChargeStall(c telemetry.StallCause, from, to int64) {
	if d.Windows.Width > 0 {
		d.Windows.Reach(to)
	}
	d.chargeTo(from, to, c, to)
}

// TPack returns t_PACK, the cycles one packet occupies a bus, without
// copying the configuration the way Config does.
func (d *Device) TPack() int { return d.cfg.Timing.TPack }

func (d *Device) checkAddr(bank, row, col int) {
	g := &d.cfg.Geometry
	if bank < 0 || bank >= g.Banks || row < 0 || row >= g.PagesPerBank ||
		col < 0 || col >= d.packetsPerPage {
		panic(fmt.Sprintf("rdram: address out of range: bank=%d row=%d col=%d (geometry %+v)", bank, row, col, *g))
	}
}

// emit hands a scheduled packet to the per-window counters and the trace
// hook, when either is on.
// rdlint:hotpath
func (d *Device) emit(kind TraceKind, at int64, dur int, bank, row, col int) {
	if d.Trace != nil || d.Windows.Width > 0 {
		d.observe(kind, at, at+int64(dur), bank, row, col)
	}
}

// observe is emit's work, out of line so that emit, which runs on every
// packet, stays inlinable.
// rdlint:hotpath
func (d *Device) observe(kind TraceKind, start, end int64, bank, row, col int) {
	if d.Windows.Width > 0 {
		d.Windows.AddBusy(kind.bus(), start, end)
	}
	if d.Trace != nil {
		d.Trace(TraceEvent{Kind: kind, Start: start, End: end, Bank: bank, Row: row, Col: col})
	}
}

// prechargeAt schedules a ROW PRER packet for bank b no earlier than at and
// returns its start cycle. The caller must know the bank is open.
//
// When occupyBus is false the PRER packet is slotted into a row-bus gap
// without delaying subsequent ACT packets. This models the paper's
// observation that "the precharge can be completely overlapped with other
// activity, since tRAS + tRP < 2*tRR + tRAC": with ACT packets at least
// t_RR = 8 cycles apart and only t_PACK = 4 cycles wide, the row bus always
// has a free slot for a background (auto) precharge. Critical-path
// precharges — page conflicts and explicit closes — do occupy the bus.
// rdlint:hotpath
func (d *Device) prechargeAt(b int, at int64, occupyBus bool) int64 {
	t := &d.cfg.Timing
	bk := &d.banks[b]
	tp := at
	if occupyBus {
		tp = max(tp, d.rowBusFree)
	}
	// The precharge may overlap the tail of the last COL packet by at most
	// t_CPOL cycles.
	tp = max(tp, bk.lastColEnd-int64(t.TCPOL))
	// The row must have been active for at least t_RAS.
	if bk.everActed {
		tp = max(tp, bk.lastAct+d.tRAS)
	}
	if occupyBus {
		d.rowBusFree = tp + int64(t.TPack)
	}
	bk.open = false
	bk.preDone = tp + int64(t.TRP)
	bk.ops.Precharges++
	d.emit(TracePrecharge, tp, t.TPack, b, bk.row, -1)
	return tp
}

// activateAt schedules a ROW ACT packet opening row in bank b no earlier
// than at, first precharging any double-bank neighbour that is open, and
// returns the ACT start cycle.
// rdlint:hotpath
func (d *Device) activateAt(b, row int, at int64) int64 {
	t := &d.cfg.Timing
	bk := &d.banks[b]
	// Double-bank cores share sense amps between adjacent banks: both
	// cannot be open at once.
	for _, nb := range d.cfg.Geometry.adjacent(b) {
		if d.banks[nb].open {
			pre := d.prechargeAt(nb, at, true)
			at = max(at, pre+int64(t.TRP))
		}
	}
	dev := bk.chip
	ta := max(at, d.rowBusFree)
	ta = max(ta, bk.preDone)
	if d.anyAct[dev] {
		// t_RR binds consecutive ACT packets to the *same* chip; other
		// chips on the channel only contend for the ROW bus itself.
		ta = max(ta, d.lastAct[dev]+int64(t.TRR))
	}
	if bk.everActed {
		ta = max(ta, bk.lastAct+int64(t.TRC))
	}
	d.rowBusFree = ta + int64(t.TPack)
	bk.open = true
	bk.row = row
	bk.rcdReady = ta + int64(t.TRCD)
	bk.lastAct = ta
	bk.everActed = true
	d.lastAct[dev] = ta
	d.anyAct[dev] = true
	bk.ops.Activates++
	d.emit(TraceActivate, ta, t.TPack, b, row, -1)
	return ta
}

// PrechargeBank explicitly precharges bank b (open-page policy conflict
// handling, or a controller that speculatively closes pages). It returns
// the PRER start cycle, or -1 if the bank was already closed.
func (d *Device) PrechargeBank(b int, at int64) int64 {
	if b < 0 || b >= len(d.banks) {
		panic(fmt.Sprintf("rdram: bank %d out of range", b))
	}
	if !d.banks[b].open {
		return -1
	}
	return d.prechargeAt(b, at, true)
}

// BankOpenRow returns the row currently latched in bank b's sense amps,
// and whether the bank is open.
func (d *Device) BankOpenRow(b int) (row int, open bool) {
	bk := &d.banks[b]
	return bk.row, bk.open
}

// AccessReadyAt estimates the earliest cycle a column access to (bank,row)
// could issue, accounting for any precharge/activate the access would first
// require. Schedulers use it to rank candidate requests (the bank-aware
// MSU policy); it does not change device state.
func (d *Device) AccessReadyAt(bank, row int, at int64) int64 {
	bk := &d.banks[bank]
	t := &d.cfg.Timing
	if bk.open && bk.row == row {
		return max(at, bk.rcdReady)
	}
	ready := at
	if bk.open {
		// Page conflict: precharge first.
		pre := max(ready, bk.lastColEnd-int64(t.TCPOL))
		if bk.everActed {
			pre = max(pre, bk.lastAct+d.tRAS)
		}
		ready = pre + int64(t.TRP)
	} else {
		ready = max(ready, bk.preDone)
	}
	if dev := bk.chip; d.anyAct[dev] {
		ready = max(ready, d.lastAct[dev]+int64(t.TRR))
	}
	if bk.everActed {
		ready = max(ready, bk.lastAct+int64(t.TRC))
	}
	return ready + int64(t.TRCD)
}

// ActivateBank opens a row without transferring data — the speculative
// row-activation the paper's §6 proposes ("a scheduling policy that
// speculatively precharges a page and issues a ROW ACT command before the
// stream crosses the page boundary"). A conflicting open row is precharged
// first. It returns the ACT issue cycle. Activating the already-open row
// is a no-op returning -1.
func (d *Device) ActivateBank(b, row int, at int64) int64 {
	d.checkAddr(b, row, 0)
	bk := &d.banks[b]
	if bk.open && bk.row == row {
		return -1
	}
	if bk.open {
		pre := d.prechargeAt(b, at, true)
		at = max(at, pre+int64(d.cfg.Timing.TRP))
	}
	return d.activateAt(b, row, at)
}

// maybeRefresh injects pending refresh operations before cycle at.
// Each refresh is an ACT/PRER pair on the next bank in round-robin order.
// rdlint:hotpath
func (d *Device) maybeRefresh(at int64) {
	if d.cfg.RefreshInterval <= 0 {
		return
	}
	for d.nextRefresh <= at {
		b := d.refreshBank
		d.refreshBank = (d.refreshBank + 1) % len(d.banks)
		when := d.nextRefresh
		gap := d.cfg.RefreshInterval
		if d.Faults != nil {
			// Refresh-storm injection: the injector may compress the gap to
			// the next refresh (a burst of back-to-back refreshes) or stretch
			// it back out. Non-positive answers keep the nominal cadence.
			if g := d.Faults.RefreshGap(gap); g > 0 {
				gap = g
			}
		}
		d.nextRefresh += gap
		if d.banks[b].open {
			pre := d.prechargeAt(b, when, true)
			when = pre + int64(d.cfg.Timing.TRP)
		}
		// Refresh the next due row; the row address is immaterial to
		// timing, so refresh row 0.
		act := d.activateAt(b, 0, when)
		d.prechargeAt(b, act+d.tRAS, true)
		d.banks[b].open = false
		d.stats.Refreshes++
	}
}

// Do performs one packet access no earlier than cycle at and returns the
// scheduled packet times. It resolves page misses and conflicts itself:
// a closed bank is activated; an open bank holding the wrong row is
// precharged and then activated. Do is the fault-oblivious entry point:
// under an injector that rejects the access it panics, so fault-aware
// callers must use Attempt (directly or through engine.Issue's bounded
// retry path) instead.
func (d *Device) Do(at int64, req Request) Result {
	var res Result
	if !d.Attempt(at, &req, &res) {
		panic(fmt.Sprintf("rdram: access rejected under fault injection (bank=%d row=%d col=%d at=%d); use Attempt or engine.Issue on fault-injected devices", req.Bank, req.Row, req.Col, at))
	}
	return res
}

// Attempt performs one packet access like Do, but consults the fault
// injector first: a rejected access returns false with no device state
// change (beyond the Stats.Rejections count) and leaves *res untouched,
// and an accepted access may carry bounded additive latency on its
// t_RCD/t_CAC/t_RP terms. An accepted access's packet times (and a read's
// data) land in *res. With no injector attached Attempt always accepts
// and is exactly Do. The request and result travel by pointer: this is
// every controller's per-packet call, and copying them in and out by
// value was a measurable share of an SMC run.
// rdlint:hotpath
func (d *Device) Attempt(at int64, req *Request, res *Result) bool {
	d.checkAddr(req.Bank, req.Row, req.Col)
	var fault AccessFault
	if d.Faults != nil {
		fault = d.Faults.OnAccess(at, req.Bank, req.Write)
		if fault.Reject {
			d.stats.Rejections++
			return false
		}
	}
	if d.cfg.RefreshInterval > 0 {
		d.maybeRefresh(at)
	}
	t := &d.cfg.Timing
	bk := &d.banks[req.Bank]

	// prevDataFree marks where the idle window before this access's DATA
	// packet begins, for stall-cause attribution.
	prevDataFree := d.dataBusFree

	*res = Result{PreIssue: -1, ActIssue: -1}
	earliestCol := at
	switch {
	case bk.open && bk.row == req.Row:
		res.PageHit = true
		bk.ops.PageHits++
	case bk.open:
		// Page conflict: precharge, then activate the requested row; RPExtra
		// jitter stretches the conflict's precharge-to-activate wait.
		res.PreIssue = d.prechargeAt(req.Bank, at, true)
		res.ActIssue = d.activateAt(req.Bank, req.Row, res.PreIssue+int64(t.TRP)+fault.RPExtra)
		d.stats.JitterCycles += fault.RPExtra
		bk.ops.PageConflicts++
		bk.ops.PageMisses++
	default:
		res.ActIssue = d.activateAt(req.Bank, req.Row, at)
		bk.ops.PageMisses++
	}
	rcdReady := bk.rcdReady
	if res.ActIssue >= 0 && fault.RCDExtra > 0 {
		// RCDExtra jitter delays the first column access to the freshly
		// activated row beyond the nominal t_RCD.
		rcdReady += fault.RCDExtra
		d.stats.JitterCycles += fault.RCDExtra
	}
	earliestCol = max(earliestCol, rcdReady)

	// A COL RET packet retires the write buffer between the last COL WR and
	// the next COL RD. Its cost is already captured by the data-bus
	// turnaround: the paper combines the retire's t_PACK and the round-trip
	// t_RDLY into t_RW, which we enforce on the DATA bus below — so the RET
	// is emitted for the trace and counted, but does not consume an extra
	// critical-path column-bus slot.
	reqDev := bk.chip
	if !req.Write && d.pendingRetire[reqDev] {
		d.pendingRetire[reqDev] = false
		bk.ops.Retires++
		d.emit(TraceRetire, d.colBusFree, t.TPack, req.Bank, -1, -1)
	}

	tc := max(earliestCol, d.colBusFree)

	// Data packet latency from the COL packet start. Reads see the page-hit
	// latency t_CAC plus the one extra cycle that makes a page miss cost
	// exactly t_RAC = t_RCD + t_CAC + 1 from the ACT packet. CACExtra
	// jitter stretches the column-to-data pipeline for this access.
	lat := int64(t.TCAC + 1)
	if req.Write {
		lat = int64(t.TCWD)
	}
	lat += fault.CACExtra
	d.stats.JitterCycles += fault.CACExtra
	ds := tc + lat
	// The DATA bus is a shared pipelined resource; packets may not overlap,
	// and a read DATA packet must trail the previous write DATA packet by
	// the bus turnaround time t_RW.
	minDS := d.dataBusFree
	trwBound := int64(-1)
	if !req.Write && d.anyWrite {
		trwBound = d.lastWriteDataEnd + int64(t.TRW)
		minDS = max(minDS, trwBound)
	}
	if ds < minDS {
		tc += minDS - ds
		ds = minDS
	}

	d.colBusFree = tc + int64(t.TPack)
	bk.lastColEnd = tc + int64(t.TPack)
	de := ds + int64(t.TPack)
	d.dataBusFree = de
	res.ColIssue = tc
	res.DataStart = ds
	res.DataEnd = de
	if ds > prevDataFree {
		// Back-to-back packets leave no idle gap to attribute.
		d.attributeIdle(prevDataFree, at, trwBound, rcdReady, ds, res)
	}

	w := req.Col * WordsPerPacket
	if req.Write {
		d.pendingRetire[reqDev] = true
		d.lastWriteDataEnd = de
		d.anyWrite = true
		bk.ops.Writes++
		if !d.noStore {
			copy(d.pageSlot(req.Bank, req.Row)[w:w+WordsPerPacket], req.Data[:])
		}
		d.emit(TraceWriteCol, tc, t.TPack, req.Bank, req.Row, req.Col)
		d.emit(TraceWriteData, ds, t.TPack, req.Bank, req.Row, req.Col)
	} else {
		bk.ops.Reads++
		if !d.noStore {
			copy(res.Data[:], d.pageSlot(req.Bank, req.Row)[w:w+WordsPerPacket])
		}
		d.emit(TraceReadCol, tc, t.TPack, req.Bank, req.Row, req.Col)
		d.emit(TraceReadData, ds, t.TPack, req.Bank, req.Row, req.Col)
	}
	d.stats.DataBusBusy += int64(t.TPack)
	if de > d.stats.LastDataEnd {
		d.stats.LastDataEnd = de
	}

	if req.AutoPrecharge {
		d.prechargeAt(req.Bank, tc, false)
	}
	return true
}

// attributeIdle charges every idle DATA-bus cycle in [prevFree, ds) —
// the gap between the previous DATA packet and this one — to exactly one
// stall cause in Stats.Stalls. It walks a chain of monotone thresholds in
// causal order:
//
//	prevFree ──(controller idle)── at ──(precharge t_RP)── PreIssue+t_RP
//	──(t_RC/t_RR/ROW-bus wait)── ActIssue ──(t_RCD)── rcdReady
//	──(read/write turnaround t_RW)── trwBound ──(COL bus + CAS pipe)── ds
//
// Each segment is clamped to [prevFree, ds), so the per-cause charges tile
// the gap exactly; summed over a run (plus any controller-charged tail)
// they equal Cycles − DataBusBusy. Cycles before the request arrived are
// charged to the cause the controller declared via SetIdleCause
// (no-request, dependency wait, or FIFO starvation). Attempt calls it
// on every access that leaves a gap (ds > prevFree).
// rdlint:hotpath
func (d *Device) attributeIdle(prevFree, at, trwBound, rcdReady, ds int64, res *Result) {
	t := &d.cfg.Timing
	if d.Windows.Width > 0 {
		d.Windows.Reach(ds)
	}
	pos := d.chargeTo(prevFree, ds, d.idleCause, at)
	if res.PreIssue >= 0 {
		pos = d.chargeTo(pos, ds, telemetry.StallPrecharge, res.PreIssue+int64(t.TRP))
	}
	if res.ActIssue >= 0 {
		pos = d.chargeTo(pos, ds, telemetry.StallRowTiming, res.ActIssue)
		pos = d.chargeTo(pos, ds, telemetry.StallActivate, res.ActIssue+int64(t.TRCD))
	} else {
		// Page hit on a freshly opened row can still wait out t_RCD.
		pos = d.chargeTo(pos, ds, telemetry.StallActivate, rcdReady)
	}
	if trwBound >= 0 {
		pos = d.chargeTo(pos, ds, telemetry.StallTurnaround, trwBound)
	}
	d.chargeTo(pos, ds, telemetry.StallColumn, ds)
}

// chargeTo charges the idle cycles [pos, min(until, ds)) to cause c and
// returns where the next segment starts. The windows, if kept, must
// Reach ds.
// rdlint:hotpath
func (d *Device) chargeTo(pos, ds int64, c telemetry.StallCause, until int64) int64 {
	until = min(until, ds)
	if until <= pos {
		return pos
	}
	d.stats.Stalls[c] += until - pos
	if d.Windows.Width > 0 {
		d.Windows.AddStall(c, pos, until)
	}
	return until
}

// NoEvent is NextEventAt's answer when no device state change is scheduled
// after the queried time.
const NoEvent = int64(-1)

// NextEventAt returns the earliest cycle strictly after now at which any
// device resource changes state: a bank finishing its precharge (t_RP) or
// becoming column-ready (t_RCD), a command or DATA bus freeing, the
// read-after-write turnaround window closing, or the refresh timer firing.
// It is a pure query.
//
// Callers use it to jump simulated time instead of crawling cycle-by-cycle.
// Note that for the decoupled controllers a device event alone never makes
// a *new* request issuable — FIFO occupancy changes only at CPU and retry
// events — so the schedulers min their own event sets and use NextEventAt
// for stall diagnostics and tests (see docs/PERFORMANCE.md for why folding
// it into the scheduler wake-ups would split telemetry idle episodes).
// rdlint:hotpath
func (d *Device) NextEventAt(now int64) int64 {
	next := NoEvent
	consider := func(t int64) {
		if t > now && (next == NoEvent || t < next) {
			next = t
		}
	}
	if d.cfg.RefreshInterval > 0 {
		consider(d.nextRefresh)
	}
	consider(d.rowBusFree)
	consider(d.colBusFree)
	consider(d.dataBusFree)
	if d.anyWrite {
		consider(d.lastWriteDataEnd + int64(d.cfg.Timing.TRW))
	}
	for i := range d.banks {
		bk := &d.banks[i]
		consider(bk.preDone)
		if bk.open {
			consider(bk.rcdReady)
		}
	}
	return next
}

// storedPage is one touched page of the functional store.
type storedPage struct {
	id    int32 // bank*PagesPerBank + row
	words []uint64
}

// pageSlot returns the storage backing (bank,row), allocating it on first
// touch so that untouched memory costs nothing. With a PagePool attached
// the page table and the page backing come from the pool instead of the
// heap.
func (d *Device) pageSlot(bank, row int) []uint64 {
	id := bank*d.cfg.Geometry.PagesPerBank + row
	if d.pageTable == nil {
		d.pageTable, d.pages = d.pool.store(d.cfg.Geometry.Pages())
	}
	if i := d.pageTable[id]; i != 0 {
		return d.pages[i-1].words
	}
	p := d.pool.get(d.cfg.Geometry.PageWords)
	d.pages = append(d.pages, storedPage{id: int32(id), words: p})
	d.pageTable[id] = int32(len(d.pages))
	return p
}

// SetTimingOnly disables the functional store: accesses move no data
// (reads return zeros, PokeWord is a no-op) and neither the page table nor
// any page slot is ever allocated. Data values never influence the timing
// model — scheduling is purely address-driven — so a timing-only run is
// cycle-identical to a functional one; the harness enables this for
// SkipVerify runs, where the memory image is never inspected.
func (d *Device) SetTimingOnly(on bool) { d.noStore = on }

// TimingOnly reports whether the functional store is disabled (see
// SetTimingOnly).
func (d *Device) TimingOnly() bool { return d.noStore }

// UsePagePool routes this device's page-table and page-slot allocations
// through pool. It must be attached before the first access; the pool is
// not safe for concurrent use, so share one only between devices driven by
// the same goroutine (the sweep harness keeps one per worker).
func (d *Device) UsePagePool(pool *PagePool) { d.pool = pool }

// ReleasePages returns every touched page and the page table to the
// attached pool, resetting only the table entries that were set, and
// clears the functional store. The device must not be used afterwards;
// the sweep harness calls this once a scenario's verification is done.
func (d *Device) ReleasePages() {
	if d.pool == nil {
		return
	}
	for _, p := range d.pages {
		d.pageTable[p.id] = 0
		d.pool.put(p.words)
	}
	if d.pageTable != nil {
		d.pool.table, d.pool.list = d.pageTable, d.pages[:0]
		d.pageTable, d.pages = nil, nil
	}
}

// PagePool recycles the functional store across simulations: the page
// table and the page-slot backing arrays, the largest per-scenario
// allocations a sweep repeats. Pages are zeroed on reuse, because the
// functional store promises zero-filled memory on first touch; a table
// comes back all zero because ReleasePages resets the entries it set. A
// nil *PagePool allocates from the heap. Not safe for concurrent use.
type PagePool struct {
	free  [][]uint64
	table []int32      // a released, all-zero page table
	list  []storedPage // a released touched-page list, kept for its capacity
}

// store returns an all-zero page table of n entries and an empty
// touched-page list. The pool hands each out at most once, so two live
// devices never share them.
func (p *PagePool) store(n int) ([]int32, []storedPage) {
	if p == nil {
		return make([]int32, n), nil
	}
	t, l := p.table, p.list
	p.table, p.list = nil, nil
	if len(t) != n {
		// A geometry change mid-sweep strands the old size; drop it.
		t = make([]int32, n)
	}
	return t, l
}

// get returns a zeroed page of exactly words words.
func (p *PagePool) get(words int) []uint64 {
	if p == nil {
		return make([]uint64, words)
	}
	for len(p.free) > 0 {
		pg := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		if len(pg) == words {
			clear(pg)
			return pg
		}
		// A geometry change mid-sweep strands old sizes; drop them.
	}
	return make([]uint64, words)
}

func (p *PagePool) put(pg []uint64) { p.free = append(p.free, pg) }

// Page returns the functional store's words of page (bank, row), zero
// filled on first touch, for callers that read or write many words of one
// page without advancing time: seeding, verification, store capture. Word
// i of the slice is column i/WordsPerPacket, word i%WordsPerPacket. Writes
// through the slice are writes to the device. On a timing-only device it
// returns nil and allocates nothing. It panics on an address outside the
// geometry, like every other accessor.
func (d *Device) Page(bank, row int) []uint64 {
	d.checkAddr(bank, row, 0)
	if d.noStore {
		return nil
	}
	return d.pageSlot(bank, row)
}

// PeekWord returns the stored 64-bit word at the given packet-level
// coordinates plus word offset, for functional verification in tests.
func (d *Device) PeekWord(bank, row, col, word int) uint64 {
	d.checkAddr(bank, row, col)
	if word < 0 || word >= WordsPerPacket {
		panic(fmt.Sprintf("rdram: word offset %d out of range", word))
	}
	if d.noStore {
		return 0
	}
	return d.pageSlot(bank, row)[col*WordsPerPacket+word]
}

// PokeWord stores a 64-bit word directly, bypassing timing — used to
// initialize memory contents before a simulation.
func (d *Device) PokeWord(bank, row, col, word int, v uint64) {
	d.checkAddr(bank, row, col)
	if word < 0 || word >= WordsPerPacket {
		panic(fmt.Sprintf("rdram: word offset %d out of range", word))
	}
	if d.noStore {
		return
	}
	d.pageSlot(bank, row)[col*WordsPerPacket+word] = v
}
