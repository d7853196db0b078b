// Package telemetry is the simulator's cycle-level observability layer:
// the stall-cause taxonomy and the per-bank and per-window counter types
// the device fills, plus max-per-window gauges, fixed-bucket histograms,
// an event capture buffer, and exporters (JSONL, CSV, Chrome trace-event
// JSON). The probes are nil-safe — every method no-ops on a nil receiver
// — so the simulation layers instrument unconditionally and a run without
// a Collector pays only a nil check per probe call.
//
// Structure: a Collector owns one ControllerProbe (scheduling decisions,
// miss-latency histogram) and one FIFOProbe per SMC stream buffer (depth
// gauge, full/empty stall accounting). The counters are not here: the
// device counts its own operations per bank and attributes every idle
// DATA-bus cycle to a StallCause on every run (rdram.Stats); with a
// Collector attached it also keeps its bus occupancy and stall counts per
// window (WindowCounts), and Finalize hands both to the Collector, whose
// Report takes its totals and its time series from them.
package telemetry

// Options configures a Collector.
type Options struct {
	// Window is the time-series bucket width in cycles (default 256).
	Window int64
	// CaptureEvents enables the event buffer feeding the JSONL and Chrome
	// trace exports, which holds at most DefaultEventLimit events. Off,
	// only series, histograms and probe counts are kept.
	CaptureEvents bool
}

// Collector is the root of one simulation run's telemetry. Create it with
// New, hand it to the simulation via the Scenario/Config Telemetry fields,
// and read it back after the run. A Collector (and the simulators driving
// it) is single-goroutine, like the device itself.
type Collector struct {
	// Window is the series bucket width in cycles.
	Window int64
	// Controller records controller-level activity.
	Controller *ControllerProbe
	// FIFOs holds one probe per SMC stream FIFO, in stream order
	// (reads then writes), populated by the SMC when it runs.
	FIFOs []*FIFOProbe
	// Events is the shared capture buffer, nil unless CaptureEvents.
	Events *EventBuffer

	// The rest is recorded by Finalize: the run length, the time the
	// processor spent blocked on FIFO heads (SMC runs), the device's
	// per-bank operation counts, and its per-window counters, window i
	// covering cycles [i*Window, (i+1)*Window).
	Cycles         int64
	CPUStallCycles int64
	PerBank        []BankCounters
	Windows        []WindowCounts
}

// New builds a Collector.
func New(o Options) *Collector {
	if o.Window <= 0 {
		o.Window = 256
	}
	c := &Collector{Window: o.Window}
	if o.CaptureEvents {
		c.Events = &EventBuffer{Limit: DefaultEventLimit}
	}
	c.Controller = &ControllerProbe{MissLatency: MustHistogram(DefaultLatencyBounds()...)}
	return c
}

// FIFO returns (creating on first use) the probe for FIFO index i with the
// given display name.
func (c *Collector) FIFO(i int, name string) *FIFOProbe {
	if c == nil {
		return nil
	}
	for len(c.FIFOs) <= i {
		c.FIFOs = append(c.FIFOs, nil)
	}
	if c.FIFOs[i] == nil {
		c.FIFOs[i] = &FIFOProbe{
			Name:   name,
			Depth:  NewMaxSeries(c.Window),
			events: c.Events,
		}
	}
	return c.FIFOs[i]
}

// Finalize records the run's length and processor stall time and the
// device's per-bank and per-window counters, the source of every Report
// total, row and series but the FIFO and controller probes'.
func (c *Collector) Finalize(cycles, cpuStall int64, perBank []BankCounters, windows []WindowCounts) {
	if c == nil {
		return
	}
	c.Cycles, c.CPUStallCycles = cycles, cpuStall
	c.PerBank, c.Windows = perBank, windows
}

// BankCounters are one bank's operation counts, the per-bank rows behind
// the matching rdram.Stats totals.
type BankCounters struct {
	Activates     int64 `json:"activates"`
	Precharges    int64 `json:"precharges"`
	Reads         int64 `json:"reads"`
	Writes        int64 `json:"writes"`
	PageHits      int64 `json:"pageHits"`
	PageMisses    int64 `json:"pageMisses"`
	PageConflicts int64 `json:"pageConflicts"`
	Retires       int64 `json:"retires"`
}

// Add adds o's counts to b.
func (b *BankCounters) Add(o BankCounters) {
	b.Activates += o.Activates
	b.Precharges += o.Precharges
	b.Reads += o.Reads
	b.Writes += o.Writes
	b.PageHits += o.PageHits
	b.PageMisses += o.PageMisses
	b.PageConflicts += o.PageConflicts
	b.Retires += o.Retires
}

// WindowCounts is the device's counter block for one window of cycles.
// Busy counts the cycles packets occupied the ROW, COL and DATA buses, in
// that order; ROW and COL count every packet's cycles, so packets that
// overlap there (a background precharge, a retire) can make them exceed
// the window. Stalls counts the idle DATA-bus cycles charged to each
// cause. DATA packets and idle segments never overlap, so in every window
// the run covers completely, Busy[2] plus the stalls is the window width.
type WindowCounts struct {
	Busy   [3]int64
	Stalls [NumStallCauses]int64
}

// Windows accumulates WindowCounts over windows of Width cycles (Width
// must be positive), growing Counts to the last window it has seen a
// count in. Every count lands in the window(s) of its own cycles, split
// at window boundaries, so counts may arrive out of time order.
type Windows struct {
	Width  int64
	Counts []WindowCounts
}

// Reach grows Counts to cover every cycle before end.
func (w *Windows) Reach(end int64) {
	for int64(len(w.Counts))*w.Width < end {
		w.Counts = append(w.Counts, WindowCounts{})
	}
}

// AddBusy counts the cycles [start, end) busy on bus (0 ROW, 1 COL,
// 2 DATA).
func (w *Windows) AddBusy(bus int, start, end int64) {
	w.Reach(end)
	for start < end {
		i := start / w.Width
		hi := min(end, (i+1)*w.Width)
		w.Counts[i].Busy[bus] += hi - start
		start = hi
	}
}

// AddStall charges the idle DATA-bus cycles [start, end) to cause c.
// Counts must Reach end first: AddStall makes no call, so the device's
// per-segment charge that calls it stays small enough to inline.
// rdlint:hotpath
func (w *Windows) AddStall(c StallCause, start, end int64) {
	for start < end {
		i := start / w.Width
		hi := min(end, (i+1)*w.Width)
		w.Counts[i].Stalls[c] += hi - start
		start = hi
	}
}

// FIFOProbe records one SMC stream FIFO's behaviour.
type FIFOProbe struct {
	// Name identifies the FIFO, e.g. "read x" or "write y".
	Name string
	// Depth tracks occupancy (elements) as a per-window maximum.
	Depth *Series
	// Serviced counts packets the MSU moved for this FIFO.
	Serviced int64
	// FullStalls / FullStallCycles count episodes (and their length) where
	// the MSU wanted to prefetch but the FIFO had no room.
	FullStalls      int64
	FullStallCycles int64
	// EmptyStalls / EmptyStallCycles count episodes where the MSU wanted
	// to drain but the CPU had not pushed a complete packet yet.
	EmptyStalls      int64
	EmptyStallCycles int64

	events *EventBuffer
}

// OnDepth records the FIFO's occupancy after a push/pop/drain at cycle at.
func (p *FIFOProbe) OnDepth(at int64, depth int) {
	if p == nil {
		return
	}
	p.Depth.Observe(at, float64(depth))
	p.events.Append(Event{Track: p.Name, Name: "depth", Start: at, Value: float64(depth), Counter: true})
}

// OnService records one packet transfer for this FIFO occupying
// [start, end) on the DATA bus.
func (p *FIFOProbe) OnService(start, end int64, write bool) {
	if p == nil {
		return
	}
	p.Serviced++
	name := "fetch"
	if write {
		name = "drain"
	}
	p.events.Append(Event{Track: p.Name, Name: name, Start: start, End: end})
}

// OnBlocked records a stall episode of [at, until) with the FIFO full
// (prefetch blocked) or empty (drain blocked).
func (p *FIFOProbe) OnBlocked(at, until int64, full bool) {
	if p == nil || until <= at {
		return
	}
	if full {
		p.FullStalls++
		p.FullStallCycles += until - at
	} else {
		p.EmptyStalls++
		p.EmptyStallCycles += until - at
	}
	name := "stall empty"
	if full {
		name = "stall full"
	}
	p.events.Append(Event{Track: p.Name, Name: name, Start: at, End: until})
}

// Decision is one MSU scheduling outcome, by policy branch.
type Decision int

// The MSU policies' branches (see smc.Policy).
const (
	DecisionRoundRobin Decision = iota
	DecisionBankAware
	DecisionHitFirstHit
	DecisionHitFirstFallback

	// NumDecisions sizes per-decision arrays.
	NumDecisions
)

// decisionNames are the decisions' names in a Report.
var decisionNames = [NumDecisions]string{"roundrobin", "bankaware", "hitfirst-hit", "hitfirst-fallback"}

// ControllerProbe records controller-level telemetry common to both the
// natural-order controller and the SMC.
type ControllerProbe struct {
	// Decisions counts MSU scheduling outcomes, indexed by Decision.
	Decisions [NumDecisions]int64
	// MissLatency is the request-to-data latency of cacheline fetches
	// (natural-order controller), in cycles.
	MissLatency *Histogram
}

// OnDecision counts one scheduling decision.
func (p *ControllerProbe) OnDecision(d Decision) {
	if p == nil {
		return
	}
	p.Decisions[d]++
}

// ObserveMissLatency records one cacheline fetch latency.
func (p *ControllerProbe) ObserveMissLatency(cycles int64) {
	if p == nil {
		return
	}
	p.MissLatency.Observe(cycles)
}
