package smc

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/engine"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
)

// Policy selects the MSU's FIFO-scheduling algorithm.
type Policy int

const (
	// RoundRobin is the paper's simple policy: consider each FIFO in turn,
	// performing as many accesses as possible for the current FIFO before
	// moving on (§4.2).
	RoundRobin Policy = iota
	// BankAware is the extension Hong's thesis investigates: among the
	// FIFOs that are ready for a transfer, pick the one whose target bank
	// can be accessed soonest, avoiding bank-conflict stalls.
	BankAware
	// HitFirst is the other §6 proposal: "an MSU that overlaps activity
	// for another FIFO with the latency of the precharge and row activate
	// commands". Among ready FIFOs it prefers one whose next access hits
	// an already-open row, letting page misses' row latency hide behind
	// other FIFOs' transfers. Pairs naturally with SpeculateActivate.
	HitFirst
)

func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case BankAware:
		return "bank-aware"
	case HitFirst:
		return "hit-first"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config parameterizes an SMC simulation.
type Config struct {
	// Scheme pairs the interleaving with its precharge policy, as in the
	// paper: CLI closed-page, PI open-page.
	Scheme addrmap.Scheme
	// LineWords is the cacheline size in words; it only determines the CLI
	// address interleaving granularity (the SMC itself transfers packets).
	LineWords int
	// FIFODepth is the per-stream SBU buffer depth in 64-bit elements (the
	// paper's f, swept from 8 to 128).
	FIFODepth int
	// Policy selects the MSU scheduling algorithm.
	Policy Policy
	// SpeculateActivate enables the §6 extension: when the MSU issues the
	// last access a stream has in its current DRAM page, it speculatively
	// precharges/activates the next page's bank so the stream never stalls
	// on a page crossing. Only meaningful for PI (open-page) systems.
	SpeculateActivate bool
	// Telemetry, when non-nil, receives cycle-level instrumentation: the
	// device probe is attached to the device, one FIFO probe per stream
	// records depth and starvation, and MSU decisions and CPU stalls land
	// in the controller probe. Nil runs pay only nil checks.
	Telemetry *telemetry.Collector
	// WatchdogLimit bounds forward progress: if the MSU retires no useful
	// word for this many cycles (a fault-injected rejection livelock, or a
	// future scheduling bug) the run aborts with a *engine.WatchdogError
	// carrying a state dump. Zero selects engine.DefaultWatchdogLimit.
	WatchdogLimit int64
}

// DefaultConfig returns the paper's base SMC configuration: CLI, 32-byte
// lines, 32-element FIFOs, round-robin scheduling.
func DefaultConfig() Config {
	return Config{Scheme: addrmap.CLI, LineWords: 4, FIFODepth: 32}
}

// Result is the common controller outcome (see engine.Result); Cycles is
// the end-to-end time — every CPU access performed and every buffered
// write retired to memory — and CPUStallCycles is the time the processor
// spent blocked on an empty read FIFO or a full write FIFO.
type Result = engine.Result

// Run simulates kernel k through an SMC over the device. Device memory is
// read and written functionally, so callers can verify the results.
func Run(dev *rdram.Device, k *stream.Kernel, cfg Config) (Result, error) {
	if cfg.FIFODepth < rdram.WordsPerPacket {
		return Result{}, fmt.Errorf("smc: FIFODepth must be at least %d, got %d", rdram.WordsPerPacket, cfg.FIFODepth)
	}
	if cfg.LineWords <= 0 || cfg.LineWords%rdram.WordsPerPacket != 0 {
		return Result{}, fmt.Errorf("smc: LineWords must be a positive multiple of %d, got %d", rdram.WordsPerPacket, cfg.LineWords)
	}
	mapper, err := addrmap.New(cfg.Scheme, dev.Config().Geometry, cfg.LineWords)
	if err != nil {
		return Result{}, err
	}
	fe, err := engine.NewFrontEnd(k, int64(dev.Config().Timing.TPack/rdram.WordsPerPacket))
	if err != nil {
		return Result{}, err
	}

	s := &sim{
		dev:    dev,
		mapper: mapper,
		cfg:    cfg,
		fe:     fe,
		k:      k,
		nr:     k.ReadStreams(),
		wd:     engine.NewWatchdog(cfg.WatchdogLimit),
		tPack:  int64(dev.Config().Timing.TPack),
		tRAC:   int64(dev.Config().Timing.TRAC()),
	}
	if col := cfg.Telemetry; col != nil {
		s.ctl = engine.Attach(dev, col, telemetry.StallNoRequest)
		s.col = col
		s.dprobe = col.Device
		s.fprobes = make([]*telemetry.FIFOProbe, len(k.Streams))
		for i, st := range k.Streams {
			dir := "read"
			if st.Mode == stream.Write {
				dir = "write"
			}
			s.fprobes[i] = col.FIFO(i, fmt.Sprintf("fifo %d %s %s", i, dir, st.Name))
		}
	}
	// The plan slabs and FIFO bookkeeping arrays are the run's dominant
	// allocations and every one of them is rebuilt from scratch each run,
	// so a sweep recycles them through a pool. Slices are reused at length
	// zero and only ever appended to, so no zeroing is needed; every
	// element passes through its FIFO exactly once, so first use sizes the
	// backing exactly.
	scr := getScratch()
	defer putScratch(scr)
	words := scr.words[:0]
	var groups []group
	for i, st := range k.Streams {
		if i >= len(scr.slabs) {
			scr.slabs = append(scr.slabs, nil)
		}
		groups, words = planStream(mapper, st, scr.slabs[i][:0], words)
		scr.slabs[i] = groups
		if i < s.nr {
			if i >= len(scr.reads) {
				scr.reads = append(scr.reads, new(readFIFO))
			}
			f := scr.reads[i]
			*f = readFIFO{groups: groups, depth: cfg.FIFODepth, avail: f.avail[:0], values: f.values[:0]}
			if cap(f.avail) < st.Length {
				f.avail = make([]int64, 0, st.Length)
				f.values = make([]uint64, 0, st.Length)
			}
			s.reads = append(s.reads, f)
		} else {
			j := i - s.nr
			if j >= len(scr.writes) {
				scr.writes = append(scr.writes, new(writeFIFO))
			}
			f := scr.writes[j]
			*f = writeFIFO{groups: groups, depth: cfg.FIFODepth, pushedAt: f.pushedAt[:0], values: f.values[:0], drainAt: f.drainAt[:0]}
			if cap(f.pushedAt) < st.Length {
				f.pushedAt = make([]int64, 0, st.Length)
				f.values = make([]uint64, 0, st.Length)
				f.drainAt = make([]int64, 0, st.Length)
			}
			s.writes = append(s.writes, f)
		}
	}
	scr.words = words
	if err := s.run(); err != nil {
		return Result{}, err
	}

	st := dev.Stats()
	res := Result{
		Cycles:           max(s.fe.Time(), st.LastDataEnd),
		UsefulWords:      int64(k.Iterations()) * int64(len(k.Streams)),
		TransferredWords: st.PacketCount() * rdram.WordsPerPacket,
		CPUStallCycles:   s.fe.StallCycles(),
		Device:           st,
	}
	res.Finalize(dev.Config().Timing.CyclesPerWordPeak())
	if col := cfg.Telemetry; col != nil {
		col.Controller.CPUStallCycles = s.fe.StallCycles()
		// The run extends past the final DATA packet while the CPU drains
		// the last FIFO contents; charge that tail so the stall attribution
		// tiles the full [0, Cycles) idle time.
		col.Device.ChargeStall(telemetry.StallCPUTail, res.Cycles-st.LastDataEnd)
	}
	return res, nil
}

// runScratch is the recyclable per-run state: packet-group slabs (one per
// stream plus the shared word-offset slab) and the FIFO structs with their
// grown bookkeeping arrays. A sweep's scenarios check one out per run via
// getScratch; everything is reset by slicing to length zero, never by
// clearing, so reuse costs nothing.
type runScratch struct {
	reads  []*readFIFO
	writes []*writeFIFO
	slabs  [][]group
	words  []uint8
}

// idleScratch holds the runScratch sets no run has checked out. It is a
// plain free list rather than a sync.Pool because a pool drops whatever
// it holds across two garbage collections, and a sweep that interleaves
// SMC scenarios with other controllers idles the SMC's scratch long
// enough for that to happen: every miss re-allocated multi-megabyte FIFO
// arrays and plan slabs. The list keeps at most GOMAXPROCS sets, one per
// run that can be in flight at once.
var idleScratch struct {
	mu   sync.Mutex
	sets []*runScratch // guarded by mu
}

func getScratch() *runScratch {
	idleScratch.mu.Lock()
	defer idleScratch.mu.Unlock()
	n := len(idleScratch.sets)
	if n == 0 {
		return new(runScratch)
	}
	scr := idleScratch.sets[n-1]
	idleScratch.sets = idleScratch.sets[:n-1]
	return scr
}

func putScratch(scr *runScratch) {
	idleScratch.mu.Lock()
	defer idleScratch.mu.Unlock()
	if len(idleScratch.sets) < runtime.GOMAXPROCS(0) {
		idleScratch.sets = append(idleScratch.sets, scr)
	}
}

type sim struct {
	dev    *rdram.Device
	mapper *addrmap.Mapper
	cfg    Config
	k      *stream.Kernel
	nr     int

	reads  []*readFIFO
	writes []*writeFIFO

	// fe is the shared matched-bandwidth processor model; this sim
	// implements engine.Ports over its FIFOs.
	fe *engine.FrontEnd

	msuTime int64
	current int // round-robin cursor over all FIFOs (reads then writes)

	// Timing constants hoisted out of the issue path: Device.Config returns
	// the whole configuration by value, which showed up as copy overhead
	// once per issued packet.
	tPack int64
	tRAC  int64

	wd *engine.Watchdog // forward-progress guard (see Config.WatchdogLimit)

	// Telemetry probes; all nil when cfg.Telemetry is nil.
	col     *telemetry.Collector
	ctl     *telemetry.ControllerProbe
	dprobe  *telemetry.DeviceProbe
	fprobes []*telemetry.FIFOProbe
}

// run drives the CPU and MSU to completion as a discrete-event loop: time
// only ever moves to the next event that can change what is issuable, never
// cycle by cycle. See docs/PERFORMANCE.md for the event model.
func (s *sim) run() error {
	for {
		s.fe.Advance(s.msuTime, s)
		if s.fe.Done() && !s.msuHasWork() {
			return nil
		}
		if err := s.wd.Check(s.msuTime, s.dumpState); err != nil {
			return err
		}
		if s.issueOne() {
			continue
		}
		t := s.nextWakeup()
		if t == unscheduled || t <= s.msuTime {
			if s.fe.Done() && !s.msuHasWork() {
				return nil
			}
			return fmt.Errorf("smc: stalled at cycle %d with work remaining (MSU idle, CPU blocked)\n%s", s.msuTime, s.dumpState())
		}
		if s.col != nil {
			s.noteBlocked(s.msuTime, t)
		}
		s.msuTime = t
	}
}

// nextWakeup is the MSU's event queue: the earliest future time at which a
// new access can become issuable. That set is exactly the next CPU
// completion (the only thing that changes FIFO occupancy) and the earliest
// rejection-backoff expiry — deliberately *not* the device's own
// NextEventAt: FIFO serviceability never depends on bank or bus state, so
// waking on device events would re-run the scheduler to no effect and split
// the telemetry idle episodes noteBlocked records. Device events surface
// through dumpState and the watchdog diagnostics instead.
// rdlint:hotpath
func (s *sim) nextWakeup() int64 {
	t := s.fe.NextEvent(s)
	if rt := s.nextRetry(); rt > s.msuTime && (t == engine.Unscheduled || rt < t) {
		t = rt
	}
	return t
}

// nextRetry returns the earliest still-future rejection-backoff wake-up
// among FIFOs with work remaining, or unscheduled if none. Expired backoffs
// are ignored: such a FIFO is already serviceable, so its stale retry time
// must not masquerade as a wake-up in the past.
// rdlint:hotpath
func (s *sim) nextRetry() int64 {
	t := unscheduled
	for _, f := range s.reads {
		if f.nextFetch < len(f.groups) && f.retry.at > s.msuTime && (t == unscheduled || f.retry.at < t) {
			t = f.retry.at
		}
	}
	for _, f := range s.writes {
		if f.nextDrain < len(f.groups) && f.retry.at > s.msuTime && (t == unscheduled || f.retry.at < t) {
			t = f.retry.at
		}
	}
	return t
}

// dumpState snapshots the MSU for watchdog diagnostics: scheduler time,
// per-FIFO progress and backoff state, and the device counters.
func (s *sim) dumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "smc: msuTime=%d policy=%s scheme=%s\n", s.msuTime, s.cfg.Policy, s.cfg.Scheme)
	for i, f := range s.reads {
		fmt.Fprintf(&b, "  read fifo %d: group %d/%d occupancy=%d retryAt=%d rejects=%d\n",
			i, f.nextFetch, len(f.groups), f.issued-f.popped, f.retry.at, f.retry.rejects)
	}
	for j, f := range s.writes {
		fmt.Fprintf(&b, "  write fifo %d: group %d/%d pushed=%d drained=%d retryAt=%d rejects=%d\n",
			s.nr+j, f.nextDrain, len(f.groups), len(f.pushedAt), len(f.drainAt), f.retry.at, f.retry.rejects)
	}
	fmt.Fprintf(&b, "  cpu: nextEvent=%d wakeup=%d\n", s.fe.NextEvent(s), s.nextWakeup())
	fmt.Fprintf(&b, "  device: nextEvent=%d %v", s.dev.NextEventAt(s.msuTime), s.dev.Stats())
	return b.String()
}

// ReadAvail, WriteFree, PopRead, and PushWrite implement engine.Ports: the
// FIFO heads the front-end drains and fills at matched bandwidth.

func (s *sim) ReadAvail(i int) int64 { return s.reads[i].headAvail() }

func (s *sim) WriteFree(i int) int64 { return s.writes[i-s.nr].slotFreeAt() }

func (s *sim) PopRead(i int, done int64) uint64 {
	f := s.reads[i]
	v := f.values[f.popped]
	f.popped++
	if s.fprobes != nil {
		s.fprobes[i].OnDepth(done, f.issued-f.popped)
	}
	return v
}

func (s *sim) PushWrite(i int, v uint64, done int64) {
	f := s.writes[i-s.nr]
	f.pushedAt = append(f.pushedAt, done)
	f.values = append(f.values, v)
	if s.fprobes != nil {
		s.fprobes[i].OnDepth(done, len(f.pushedAt)-len(f.drainAt))
	}
}

// noteBlocked records an MSU idle episode [from, until): which FIFOs were
// starving it (full read FIFOs blocking prefetch, incomplete write packets
// blocking drain), and declares the dominant cause to the device so the
// idle DATA-bus cycles preceding the next access are attributed to it.
func (s *sim) noteBlocked(from, until int64) {
	cause := telemetry.StallNoRequest
	for i, f := range s.reads {
		if f.nextFetch < len(f.groups) && !f.canFetch() {
			s.fprobes[i].OnBlocked(from, until, true)
			cause = telemetry.StallFIFOFull
		}
	}
	for j, f := range s.writes {
		if f.nextDrain < len(f.groups) && !f.canDrain() {
			s.fprobes[s.nr+j].OnBlocked(from, until, false)
			if cause == telemetry.StallNoRequest {
				cause = telemetry.StallFIFOEmpty
			}
		}
	}
	// Rejection backoff dominates: if any FIFO with work is sitting out a
	// retry delay, the idle bus is the fault injector's doing.
	for _, f := range s.reads {
		if f.nextFetch < len(f.groups) && f.retry.blocked(from) {
			cause = telemetry.StallFaultRetry
		}
	}
	for _, f := range s.writes {
		if f.nextDrain < len(f.groups) && f.retry.blocked(from) {
			cause = telemetry.StallFaultRetry
		}
	}
	s.dprobe.SetIdleCause(cause)
}

// msuHasWork reports whether any stream still has packets to move.
func (s *sim) msuHasWork() bool {
	for _, f := range s.reads {
		if f.nextFetch < len(f.groups) {
			return true
		}
	}
	for _, f := range s.writes {
		if f.nextDrain < len(f.groups) {
			return true
		}
	}
	return false
}

// fifoCount is the number of FIFOs the MSU cycles over.
func (s *sim) fifoCount() int { return len(s.reads) + len(s.writes) }

// canService reports whether FIFO i can accept an access right now, and
// the earliest time the access's data could move. A FIFO backing off after
// a transient rejection is not serviceable until its retry time.
// rdlint:hotpath
func (s *sim) canService(i int) (bool, int64) {
	if i < s.nr {
		f := s.reads[i]
		if f.retry.blocked(s.msuTime) {
			return false, 0
		}
		return f.canFetch(), s.msuTime
	}
	f := s.writes[i-s.nr]
	if f.retry.blocked(s.msuTime) || !f.canDrain() {
		return false, 0
	}
	return true, max(s.msuTime, f.drainReady())
}

// issueOne lets the scheduling policy pick a FIFO and issues one packet
// for it. It reports whether anything was issued; a pick the device
// transiently rejected counts as not issued (the FIFO backs off and the
// run loop advances time so other streams get the bus).
// rdlint:hotpath
func (s *sim) issueOne() bool {
	n := s.fifoCount()
	switch s.cfg.Policy {
	case BankAware:
		// Among ready FIFOs, pick the one whose target bank is accessible
		// soonest; ties go to round-robin order from the cursor.
		best, bestAt := -1, int64(math.MaxInt64)
		for off := 0; off < n; off++ {
			i := (s.current + off) % n
			ok, at := s.canService(i)
			if !ok {
				continue
			}
			g := s.nextGroup(i)
			ready := s.dev.AccessReadyAt(g.loc.Bank, g.loc.Row, at)
			if ready < bestAt {
				best, bestAt = i, ready
			}
		}
		if best < 0 {
			return false
		}
		s.ctl.OnDecision("bankaware")
		s.current = best
		return s.issue(best)
	case HitFirst:
		// First serviceable FIFO in rotation whose access hits an open
		// row wins; otherwise fall back to plain rotation order, so a
		// round of all-misses still progresses.
		fallback := -1
		for off := 0; off < n; off++ {
			i := (s.current + off) % n
			ok, _ := s.canService(i)
			if !ok {
				continue
			}
			if fallback < 0 {
				fallback = i
			}
			g := s.nextGroup(i)
			if row, open := s.dev.BankOpenRow(g.loc.Bank); open && row == g.loc.Row {
				s.ctl.OnDecision("hitfirst-hit")
				s.current = i
				return s.issue(i)
			}
		}
		if fallback < 0 {
			return false
		}
		s.ctl.OnDecision("hitfirst-fallback")
		s.current = fallback
		return s.issue(fallback)
	default: // RoundRobin
		for off := 0; off < n; off++ {
			i := (s.current + off) % n
			if ok, _ := s.canService(i); ok {
				// Stay on this FIFO: subsequent calls keep servicing it
				// until it cannot proceed, then the scan moves past it.
				s.ctl.OnDecision("roundrobin")
				s.current = i
				return s.issue(i)
			}
		}
		return false
	}
}

// nextGroup returns the group FIFO i would issue next.
// rdlint:hotpath
func (s *sim) nextGroup(i int) group {
	if i < s.nr {
		f := s.reads[i]
		return f.groups[f.nextFetch]
	}
	f := s.writes[i-s.nr]
	return f.groups[f.nextDrain]
}

// issue performs one packet access for FIFO i, reporting whether the
// device accepted it. On a transient rejection (fault injection) the
// FIFO's backoff is armed and no controller state changes.
// rdlint:hotpath
func (s *sim) issue(i int) bool {
	g := s.nextGroup(i)
	var next *group
	if i < s.nr {
		f := s.reads[i]
		if f.nextFetch+1 < len(f.groups) {
			next = &f.groups[f.nextFetch+1]
		}
	} else {
		f := s.writes[i-s.nr]
		if f.nextDrain+1 < len(f.groups) {
			next = &f.groups[f.nextDrain+1]
		}
	}
	// Closed-page policy: precharge when this stream's burst leaves the
	// row (the next group for this stream is elsewhere).
	autoPre := s.cfg.Scheme == addrmap.CLI && (next == nil || !g.sameRowAs(*next))

	req := rdram.Request{
		Bank: g.loc.Bank, Row: g.loc.Row, Col: g.loc.Col,
		AutoPrecharge: autoPre,
	}
	at := s.msuTime
	if i >= s.nr {
		f := s.writes[i-s.nr]
		req.Write = true
		at = max(at, f.drainReady())
		// Assemble the packet: pushed values where the stream stores,
		// current memory contents elsewhere (partial packets at stream
		// edges or non-unit strides). A fully covered packet — the common
		// unit-stride case — needs no read-merge at all.
		if g.n() < rdram.WordsPerPacket {
			for w := 0; w < rdram.WordsPerPacket; w++ {
				req.Data[w] = s.dev.PeekWord(g.loc.Bank, g.loc.Row, g.loc.Col, w)
			}
		}
		for j, w := range g.words {
			req.Data[w] = f.values[g.elo+j]
		}
	}

	// A write drain that waited on the CPU's pushes is a FIFO-empty wait;
	// declare it so the idle bus cycles before the drain are attributed to
	// starvation rather than to an absent request.
	if s.dprobe != nil && req.Write && at > s.msuTime {
		s.dprobe.SetIdleCause(telemetry.StallFIFOEmpty)
	}

	var retry *retryState
	if i < s.nr {
		retry = &s.reads[i].retry
	} else {
		retry = &s.writes[i-s.nr].retry
	}

	// The MSU pipelines command issue: its next scheduling decision is
	// made one command-lead-time (t_RAC) ahead of this access's data, so
	// row/column packets for the following access overlap this one's data
	// transfer (as the Direct RDRAM interface intends), while FIFO
	// occupancy is still evaluated at a realistic point in time.
	res, ok := s.dev.Attempt(at, req)
	if !ok {
		retry.onReject(at, s.tPack)
		if s.dprobe != nil {
			s.dprobe.SetIdleCause(telemetry.StallFaultRetry)
		}
		return false
	}
	retry.onAccept()
	s.wd.Progress(res.DataEnd)
	if lead := res.DataStart - s.tRAC; lead > s.msuTime {
		s.msuTime = lead
	}

	if i < s.nr {
		f := s.reads[i]
		for _, w := range g.words {
			f.values = append(f.values, res.Data[w])
			f.avail = append(f.avail, res.DataEnd)
		}
		f.issued += g.n()
		f.nextFetch++
	} else {
		f := s.writes[i-s.nr]
		for range g.words {
			f.drainAt = append(f.drainAt, res.DataEnd)
		}
		f.nextDrain++
	}
	if s.fprobes != nil {
		fp := s.fprobes[i]
		fp.OnService(res.DataStart, res.DataEnd, req.Write)
		if i < s.nr {
			f := s.reads[i]
			fp.OnDepth(res.DataEnd, f.issued-f.popped)
		} else {
			f := s.writes[i-s.nr]
			fp.OnDepth(res.DataEnd, len(f.pushedAt)-len(f.drainAt))
		}
		s.dprobe.SetIdleCause(telemetry.StallNoRequest)
	}

	// §6 extension: when a stream finishes its accesses to a DRAM page,
	// open the next page it will touch while other FIFOs use the bus.
	if s.cfg.SpeculateActivate && s.cfg.Scheme == addrmap.PI &&
		next != nil && !g.sameRowAs(*next) {
		s.dev.ActivateBank(next.loc.Bank, next.loc.Row, s.msuTime)
	}
	return true
}
