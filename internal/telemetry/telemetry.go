// Package telemetry is the simulator's cycle-level observability layer:
// the stall-cause taxonomy and per-bank counter types the device fills on
// every run, plus fixed-window time series, fixed-bucket histograms, an
// event capture buffer, and exporters (JSONL, CSV, Chrome trace-event
// JSON). The probes are nil-safe — every method no-ops on a
// nil receiver — so the simulation layers instrument unconditionally and
// a run without a Collector pays only a nil check per probe call.
//
// Structure: a Collector owns one DeviceProbe (per-window ROW/COL/DATA
// bus occupancy and per-bank packet events), one ControllerProbe
// (scheduling decisions, miss-latency histogram, CPU stalls), and one
// FIFOProbe per SMC stream buffer (depth gauge, full/empty stall
// accounting). The counters are not here: the device counts its own
// operations per bank and attributes every idle DATA-bus cycle to a
// StallCause on every run (rdram.Stats), and Finalize hands that snapshot
// to the Collector for its Report.
package telemetry

import "strconv"

// Options configures a Collector.
type Options struct {
	// Window is the time-series bucket width in cycles (default 256).
	Window int64
	// CaptureEvents enables the event buffer feeding the JSONL and Chrome
	// trace exports. Off, only series, histograms and probe counts are
	// kept.
	CaptureEvents bool
	// EventLimit caps the capture buffer (default DefaultEventLimit).
	EventLimit int
}

// Collector is the root of one simulation run's telemetry. Create it with
// New, hand it to the simulation via the Scenario/Config Telemetry fields,
// and read it back after the run. A Collector (and the simulators driving
// it) is single-goroutine, like the device itself.
type Collector struct {
	// Window is the series bucket width in cycles.
	Window int64
	// Device records the device's bus occupancy and packet events.
	Device *DeviceProbe
	// Controller records controller-level activity.
	Controller *ControllerProbe
	// FIFOs holds one probe per SMC stream FIFO, in stream order
	// (reads then writes), populated by the SMC when it runs.
	FIFOs []*FIFOProbe
	// Events is the shared capture buffer, nil unless CaptureEvents.
	Events *EventBuffer
	// Cycles is the run length recorded by Finalize.
	Cycles int64
	// Counters is the device's counter snapshot recorded by Finalize.
	Counters DeviceCounters
}

// DeviceCounters is the device's own counter block at the end of a run:
// DATA-bus occupancy, the stall-cause attribution of the idle cycles, and
// the per-bank operation counts.
type DeviceCounters struct {
	DataBusBusy int64
	Stalls      [NumStallCauses]int64
	PerBank     []BankCounters
}

// New builds a Collector.
func New(o Options) *Collector {
	if o.Window <= 0 {
		o.Window = 256
	}
	c := &Collector{Window: o.Window}
	if o.CaptureEvents {
		limit := o.EventLimit
		if limit <= 0 {
			limit = DefaultEventLimit
		}
		c.Events = &EventBuffer{Limit: limit}
	}
	c.Device = &DeviceProbe{
		bus:    [NumBuses]*Series{NewSeries(o.Window), NewSeries(o.Window), NewSeries(o.Window)},
		events: c.Events,
	}
	c.Controller = &ControllerProbe{
		MissLatency: MustHistogram(DefaultLatencyBounds()...),
		Decisions:   map[string]int64{},
	}
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

// Finalize records the run's total cycle count and the device's counters,
// the source of the Report's totals, per-bank rows and stall attribution.
func (c *Collector) Finalize(cycles int64, dev DeviceCounters) {
	if c == nil {
		return
	}
	c.Cycles = cycles
	c.Counters = dev
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

// Bus names one of the device's three shared buses.
type Bus int

// The buses a packet can occupy, in the order BusSeries returns them.
const (
	RowBus Bus = iota
	ColBus
	DataBus

	// NumBuses sizes per-bus arrays.
	NumBuses
)

// DeviceProbe records the device's bus occupancy per window and, with
// event capture on, one event per packet on its bank's track. The device
// reaches it through its packet trace hook (see engine.Attach); the
// device's counters are the device's own (rdram.Stats).
type DeviceProbe struct {
	bus    [NumBuses]*Series
	tracks []string // capture track per bank, named once by SetBanks

	events *EventBuffer
}

// SetBanks names one capture track per bank of an n-bank device, once, so
// recording an event formats nothing. Without event capture it does
// nothing.
func (p *DeviceProbe) SetBanks(n int) {
	if p == nil || p.events == nil {
		return
	}
	p.tracks = make([]string, n)
	for b := range p.tracks {
		p.tracks[b] = "bank " + strconv.Itoa(b)
	}
}

// OnPacket records one packet named name (e.g. "ACT", "DATA rd") that
// bank b's access put on bus during [start, end).
func (p *DeviceProbe) OnPacket(bus Bus, name string, b int, start, end int64) {
	if p == nil {
		return
	}
	p.bus[bus].AddSpan(start, end, 1)
	if p.events != nil {
		p.events.Append(Event{Track: p.tracks[b], Name: name, Start: start, End: end})
	}
}

// BusSeries returns the ROW, COL, and DATA bus occupancy series
// (busy cycles per window).
func (p *DeviceProbe) BusSeries() (row, col, data *Series) {
	if p == nil {
		return nil, nil, nil
	}
	return p.bus[RowBus], p.bus[ColBus], p.bus[DataBus]
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

// ControllerProbe records controller-level telemetry common to both the
// natural-order controller and the SMC.
type ControllerProbe struct {
	// Decisions counts MSU scheduling outcomes by label (e.g. "roundrobin",
	// "hitfirst-hit", "hitfirst-fallback", "bankaware").
	Decisions map[string]int64
	// MissLatency is the request-to-data latency of cacheline fetches
	// (natural-order controller), in cycles.
	MissLatency *Histogram
	// CPUStallCycles is the time the processor spent blocked on FIFO heads
	// (SMC mode).
	CPUStallCycles int64
}

// OnDecision counts one scheduling decision.
func (p *ControllerProbe) OnDecision(label string) {
	if p == nil {
		return
	}
	p.Decisions[label]++
}

// ObserveMissLatency records one cacheline fetch latency.
func (p *ControllerProbe) ObserveMissLatency(cycles int64) {
	if p == nil {
		return
	}
	p.MissLatency.Observe(cycles)
}
