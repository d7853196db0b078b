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

// ParsePolicy resolves an MSU policy name, case-insensitively: each
// policy's String form, its unhyphenated form, or its initials.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "roundrobin", "round-robin", "rr":
		return RoundRobin, nil
	case "bankaware", "bank-aware", "ba":
		return BankAware, nil
	case "hitfirst", "hit-first", "hf":
		return HitFirst, nil
	}
	return 0, fmt.Errorf("unknown policy %q", s)
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
	res, _, err := simulate(dev, k, cfg)
	return res, err
}

// work counts the scheduler's effort over one run: passes of the run
// loop, canService calls, and nextWakeup calls (time jumps). They are
// deterministic, so tests pin them exactly where timings cannot resolve
// a change.
type work struct {
	passes, services, wakeups int64
}

// simulate is Run, also reporting the scheduler's work counts.
func simulate(dev *rdram.Device, k *stream.Kernel, cfg Config) (Result, work, error) {
	scr := getScratch()
	defer putScratch(scr)
	s, err := newSim(dev, k, cfg, scr)
	if err != nil {
		return Result{}, work{}, err
	}
	if err := s.run(); err != nil {
		return Result{}, work{}, err
	}

	// The run extends past the final DATA packet while the CPU drains the
	// last FIFO contents; charge that tail so the stall attribution tiles
	// the full [0, Cycles) idle time.
	lastData := dev.Stats().LastDataEnd
	cycles := max(s.fe.time, lastData)
	dev.ChargeStall(telemetry.StallCPUTail, lastData, cycles)
	res := engine.NewResult(dev, cycles, int64(s.iters)*int64(s.nstreams))
	res.CPUStallCycles = s.fe.stall
	return res, s.work, nil
}

// newSim validates the configuration and the kernel and builds the run's
// state over dev, its FIFOs drawn from scr.
func newSim(dev *rdram.Device, k *stream.Kernel, cfg Config, scr *runScratch) (*sim, error) {
	if cfg.FIFODepth < rdram.WordsPerPacket {
		return nil, fmt.Errorf("smc: FIFODepth must be at least %d, got %d", rdram.WordsPerPacket, cfg.FIFODepth)
	}
	if cfg.LineWords <= 0 || cfg.LineWords%rdram.WordsPerPacket != 0 {
		return nil, fmt.Errorf("smc: LineWords must be a positive multiple of %d, got %d", rdram.WordsPerPacket, cfg.LineWords)
	}
	mapper, err := addrmap.New(cfg.Scheme, dev.Config().Geometry, cfg.LineWords)
	if err != nil {
		return nil, err
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}

	s := &sim{
		dev:      dev,
		mapper:   mapper,
		cfg:      cfg,
		fe:       frontEnd{xfer: int64(dev.Config().Timing.TPack / rdram.WordsPerPacket)},
		k:        k,
		nr:       k.ReadStreams(),
		nstreams: len(k.Streams),
		iters:    k.Iterations(),
		wd:       engine.NewWatchdog(cfg.WatchdogLimit),
		tPack:    int64(dev.Config().Timing.TPack),
		tRAC:     int64(dev.Config().Timing.TRAC()),
		data:     !dev.TimingOnly(),
	}
	s.ctl = engine.Attach(dev, cfg.Telemetry, telemetry.StallNoRequest)
	if col := cfg.Telemetry; col != nil {
		s.fprobes = make([]*telemetry.FIFOProbe, len(k.Streams))
		for i, st := range k.Streams {
			dir := "read"
			if st.Mode == stream.Write {
				dir = "write"
			}
			s.fprobes[i] = col.FIFO(i, fmt.Sprintf("fifo %d %s %s", i, dir, st.Name))
		}
	}
	// The FIFOs and their rings are recycled through a free list. A ring
	// holds at least depth slots, so its size depends on the depth alone,
	// never on the stream's length. Every slot is written before it is
	// read, so reuse needs no clearing.
	if cap(scr.in) < s.nr {
		scr.in = make([]float64, s.nr)
	}
	s.in = scr.in[:s.nr]
	size := ringSize(cfg.FIFODepth)
	for i, st := range k.Streams {
		if i < s.nr {
			if i >= len(scr.reads) {
				scr.reads = append(scr.reads, new(readFIFO))
			}
			f := scr.reads[i]
			*f = readFIFO{depth: cfg.FIFODepth, mask: size - 1, avail: ring(f.avail, size), values: ring(f.values, size)}
			f.plan.reset(st, &s.mapper)
		} else {
			j := i - s.nr
			if j >= len(scr.writes) {
				scr.writes = append(scr.writes, new(writeFIFO))
			}
			f := scr.writes[j]
			*f = writeFIFO{depth: cfg.FIFODepth, mask: size - 1, pushedAt: ring(f.pushedAt, size), values: ring(f.values, size), drainAt: ring(f.drainAt, size)}
			f.plan.reset(st, &s.mapper)
		}
	}
	s.reads, s.writes = scr.reads[:s.nr], scr.writes[:len(k.Streams)-s.nr]
	return s, nil
}

// ring returns r resized to size slots, reusing its backing when it is
// large enough.
func ring[T int64 | uint64](r []T, size int) []T {
	if cap(r) < size {
		return make([]T, size)
	}
	return r[:size]
}

// runScratch is the recyclable per-run state: the FIFO structs with their
// rings, and the kernel's input buffer. A sweep's scenarios check one out
// per run via getScratch; everything is reset by reslicing, never by
// clearing, so reuse costs nothing.
type runScratch struct {
	reads  []*readFIFO
	writes []*writeFIFO
	in     []float64
}

// idleScratch holds the runScratch sets no run has checked out. It is a
// plain free list rather than a sync.Pool because a pool drops whatever
// it holds across two garbage collections, and a sweep that interleaves
// SMC scenarios with other controllers idles the SMC's scratch long
// enough for that to happen: every miss re-allocated the FIFO rings. The list keeps at most GOMAXPROCS sets, one per run that can be
// in flight at once.
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
	dev      *rdram.Device
	mapper   addrmap.Mapper // the planners map through it
	cfg      Config
	k        *stream.Kernel
	nr       int // read streams, which come first
	nstreams int // FIFOs the MSU cycles over, one per stream
	iters    int

	reads  []*readFIFO
	writes []*writeFIFO

	fe frontEnd // the matched-bandwidth processor model

	// in holds the current iteration's loaded values and out its
	// computed store values (see feAdvance). data is false on a
	// timing-only device, which stores no data: the front end then
	// neither captures loads nor computes.
	in   []float64
	out  []float64
	data bool

	msuTime int64
	current int // round-robin cursor over all FIFOs (reads then writes)

	// Timing constants hoisted out of the issue path: Device.Config returns
	// the whole configuration by value, which showed up as copy overhead
	// once per issued packet.
	tPack int64
	tRAC  int64

	wd *engine.Watchdog // forward-progress guard (see Config.WatchdogLimit)

	work work // scheduler work counts

	// Telemetry probes; all nil when cfg.Telemetry is nil.
	ctl     *telemetry.ControllerProbe
	fprobes []*telemetry.FIFOProbe
}

// run drives the CPU and MSU to completion as a discrete-event loop: time
// only ever moves to the next event that can change what is issuable, never
// cycle by cycle. See docs/PERFORMANCE.md for the event model.
func (s *sim) run() error {
	for {
		s.work.passes++
		s.feAdvance(s.msuTime)
		if s.feDone() && !s.msuHasWork() {
			return nil
		}
		if err := s.wd.Check(s.msuTime, s.dumpState); err != nil {
			return err
		}
		if s.issueOne() {
			continue
		}
		s.work.wakeups++
		t := s.nextWakeup()
		if t == unscheduled || t <= s.msuTime {
			if s.feDone() && !s.msuHasWork() {
				return nil
			}
			return fmt.Errorf("smc: stalled at cycle %d with work remaining (MSU idle, CPU blocked)\n%s", s.msuTime, s.dumpState())
		}
		s.noteBlocked(s.msuTime, t)
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
	t := s.feNextEvent()
	if rt := s.nextRetry(); rt > s.msuTime && (t == unscheduled || rt < t) {
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
		if f.plan.more() && f.retry.at > s.msuTime && (t == unscheduled || f.retry.at < t) {
			t = f.retry.at
		}
	}
	for _, f := range s.writes {
		if f.plan.more() && f.retry.at > s.msuTime && (t == unscheduled || f.retry.at < t) {
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
		fmt.Fprintf(&b, "  read fifo %d: element %d/%d occupancy=%d retryAt=%d rejects=%d\n",
			i, f.plan.cur.elo, f.plan.st.Length, f.issued-f.popped, f.retry.at, f.retry.rejects)
	}
	for j, f := range s.writes {
		fmt.Fprintf(&b, "  write fifo %d: element %d/%d pushed=%d drained=%d retryAt=%d rejects=%d\n",
			s.nr+j, f.plan.cur.elo, f.plan.st.Length, f.pushed, f.drained, f.retry.at, f.retry.rejects)
	}
	fmt.Fprintf(&b, "  cpu: nextEvent=%d wakeup=%d\n", s.feNextEvent(), s.nextWakeup())
	fmt.Fprintf(&b, "  device: nextEvent=%d %v", s.dev.NextEventAt(s.msuTime), s.dev.Stats())
	return b.String()
}

// noteBlocked handles an MSU idle episode [from, until): it declares the
// dominant cause to the device, so the idle DATA-bus cycles preceding the
// next access are attributed to it, and with telemetry on records which
// FIFOs were starving the MSU (full read FIFOs blocking prefetch,
// incomplete write packets blocking drain).
func (s *sim) noteBlocked(from, until int64) {
	cause := telemetry.StallNoRequest
	for i, f := range s.reads {
		if f.plan.more() && !f.canFetch() {
			if s.fprobes != nil {
				s.fprobes[i].OnBlocked(from, until, true)
			}
			cause = telemetry.StallFIFOFull
		}
	}
	for j, f := range s.writes {
		if f.plan.more() && !f.canDrain() {
			if s.fprobes != nil {
				s.fprobes[s.nr+j].OnBlocked(from, until, false)
			}
			if cause == telemetry.StallNoRequest {
				cause = telemetry.StallFIFOEmpty
			}
		}
	}
	// Rejection backoff dominates: if any FIFO with work is sitting out a
	// retry delay, the idle bus is the fault injector's doing.
	for _, f := range s.reads {
		if f.plan.more() && f.retry.blocked(from) {
			cause = telemetry.StallFaultRetry
		}
	}
	for _, f := range s.writes {
		if f.plan.more() && f.retry.blocked(from) {
			cause = telemetry.StallFaultRetry
		}
	}
	s.dev.SetIdleCause(cause)
}

// msuHasWork reports whether any stream still has packets to move.
func (s *sim) msuHasWork() bool {
	for _, f := range s.reads {
		if f.plan.more() {
			return true
		}
	}
	for _, f := range s.writes {
		if f.plan.more() {
			return true
		}
	}
	return false
}

// wrap returns the FIFO after i in the MSU's rotation. Scans step it
// instead of taking (current+off) % n: the division was a visible share
// of the issue loop.
// rdlint:hotpath
func (s *sim) wrap(i int) int {
	if i++; i == s.nstreams {
		return 0
	}
	return i
}

// canService reports whether FIFO i can accept an access right now, and
// the earliest time the access's data could move. A FIFO backing off after
// a transient rejection is not serviceable until its retry time.
// rdlint:hotpath
func (s *sim) canService(i int) (bool, int64) {
	s.work.services++
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
	n := s.nstreams
	switch s.cfg.Policy {
	case BankAware:
		// Among ready FIFOs, pick the one whose target bank is accessible
		// soonest; ties go to round-robin order from the cursor.
		best, bestAt := -1, int64(math.MaxInt64)
		for off, i := 0, s.current; off < n; off, i = off+1, s.wrap(i) {
			ok, at := s.canService(i)
			if !ok {
				continue
			}
			g := &s.planOf(i).cur
			ready := s.dev.AccessReadyAt(g.loc.Bank, g.loc.Row, at)
			if ready < bestAt {
				best, bestAt = i, ready
			}
		}
		if best < 0 {
			return false
		}
		s.ctl.OnDecision(telemetry.DecisionBankAware)
		s.current = best
		return s.issue(best)
	case HitFirst:
		// First serviceable FIFO in rotation whose access hits an open
		// row wins; otherwise fall back to plain rotation order, so a
		// round of all-misses still progresses.
		fallback := -1
		for off, i := 0, s.current; off < n; off, i = off+1, s.wrap(i) {
			ok, _ := s.canService(i)
			if !ok {
				continue
			}
			if fallback < 0 {
				fallback = i
			}
			g := &s.planOf(i).cur
			if row, open := s.dev.BankOpenRow(g.loc.Bank); open && row == g.loc.Row {
				s.ctl.OnDecision(telemetry.DecisionHitFirstHit)
				s.current = i
				return s.issue(i)
			}
		}
		if fallback < 0 {
			return false
		}
		s.ctl.OnDecision(telemetry.DecisionHitFirstFallback)
		s.current = fallback
		return s.issue(fallback)
	default: // RoundRobin
		for off, i := 0, s.current; off < n; off, i = off+1, s.wrap(i) {
			if ok, _ := s.canService(i); ok {
				// Stay on this FIFO: subsequent calls keep servicing it
				// until it cannot proceed, then the scan moves past it.
				s.ctl.OnDecision(telemetry.DecisionRoundRobin)
				s.current = i
				return s.issue(i)
			}
		}
		return false
	}
}

// planOf returns FIFO i's planner; its cur is the group FIFO i would
// issue next.
// rdlint:hotpath
func (s *sim) planOf(i int) *planner {
	if i < s.nr {
		return &s.reads[i].plan
	}
	return &s.writes[i-s.nr].plan
}

// issue performs one packet access for FIFO i, reporting whether the
// device accepted it. On a transient rejection (fault injection) the
// FIFO's backoff is armed and no controller state changes.
// rdlint:hotpath
func (s *sim) issue(i int) bool {
	p := s.planOf(i)
	g := &p.cur
	next := p.lookahead()
	// Closed-page policy: precharge when this stream's burst leaves the
	// row (the next group for this stream is elsewhere).
	autoPre := s.cfg.Scheme == addrmap.CLI && (next == nil || !g.sameRowAs(next))

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
		// edges or non-unit strides), read from the packet's own page. A
		// fully covered packet — the common unit-stride case — needs no
		// read-merge at all. A timing-only device has no page and stores
		// no data.
		if g.n() < rdram.WordsPerPacket {
			if pg := s.dev.Page(g.loc.Bank, g.loc.Row); pg != nil {
				copy(req.Data[:], pg[g.loc.Col*rdram.WordsPerPacket:])
			}
		}
		for j, w := range g.words[:g.n()] {
			req.Data[w] = f.values[(g.elo+j)&f.mask]
		}
	}

	// A write drain that waited on the CPU's pushes is a FIFO-empty wait;
	// declare it so the idle bus cycles before the drain are attributed to
	// starvation rather than to an absent request.
	if req.Write && at > s.msuTime {
		s.dev.SetIdleCause(telemetry.StallFIFOEmpty)
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
	var res rdram.Result
	if !s.dev.Attempt(at, &req, &res) {
		retry.onReject(at, s.tPack)
		s.dev.SetIdleCause(telemetry.StallFaultRetry)
		return false
	}
	retry.onAccept()
	s.wd.Progress(res.DataEnd)
	if lead := res.DataStart - s.tRAC; lead > s.msuTime {
		s.msuTime = lead
	}

	if i < s.nr {
		f := s.reads[i]
		for _, w := range g.words[:g.n()] {
			f.values[f.issued&f.mask] = res.Data[w]
			f.avail[f.issued&f.mask] = res.DataEnd
			f.issued++
		}
	} else {
		f := s.writes[i-s.nr]
		for range g.n() {
			f.drainAt[f.drained&f.mask] = res.DataEnd
			f.drained++
		}
	}
	if s.fprobes != nil {
		fp := s.fprobes[i]
		fp.OnService(res.DataStart, res.DataEnd, req.Write)
		if i < s.nr {
			f := s.reads[i]
			fp.OnDepth(res.DataEnd, f.issued-f.popped)
		} else {
			f := s.writes[i-s.nr]
			fp.OnDepth(res.DataEnd, f.pushed-f.drained)
		}
	}
	s.dev.SetIdleCause(telemetry.StallNoRequest)

	// §6 extension: when a stream finishes its accesses to a DRAM page,
	// open the next page it will touch while other FIFOs use the bus.
	if s.cfg.SpeculateActivate && s.cfg.Scheme == addrmap.PI &&
		next != nil && !g.sameRowAs(next) {
		s.dev.ActivateBank(next.loc.Bank, next.loc.Row, s.msuTime)
	}
	p.advance()
	return true
}
