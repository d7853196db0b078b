package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Report is a JSON-friendly snapshot of a Collector, the payload behind
// the metrics.json of rdsim -profile.
type Report struct {
	Cycles      int64 `json:"cycles"`
	Window      int64 `json:"windowCycles"`
	DataBusBusy int64 `json:"dataBusBusy"`
	IdleCycles  int64 `json:"idleCycles"`
	// Stalls is the per-cause idle-cycle attribution; values sum to
	// IdleCycles, and IdleCycles == Cycles − DataBusBusy.
	Stalls map[string]int64 `json:"stalls"`
	// StallsPerWindow gives, for each cause in Stalls, its idle cycles
	// per window; with the DATA bus's busy cycles they tile each window.
	StallsPerWindow map[string][]int64 `json:"stallsPerWindow"`

	Totals  BankCounters   `json:"totals"`
	PerBank []BankCounters `json:"perBank"`

	// BusBusyPerWindow gives ROW/COL/DATA busy cycles per window.
	BusBusyPerWindow map[string][]int64 `json:"busBusyPerWindow"`
	// BandwidthMBps is the delivered DATA-bus bandwidth per window in
	// MB/s (16 bytes per t_PACK-cycle packet, 2.5 ns per cycle).
	BandwidthMBps []float64 `json:"bandwidthMBps"`

	Decisions      map[string]int64  `json:"decisions,omitempty"`
	MissLatency    []HistogramBucket `json:"missLatency,omitempty"`
	MissLatencyAvg float64           `json:"missLatencyAvg,omitempty"`
	CPUStallCycles int64             `json:"cpuStallCycles,omitempty"`

	FIFOs []FIFOReport `json:"fifos,omitempty"`

	EventsTruncated bool `json:"eventsTruncated,omitempty"`
}

// FIFOReport summarizes one stream FIFO.
type FIFOReport struct {
	Name             string    `json:"name"`
	Serviced         int64     `json:"servicedPackets"`
	FullStalls       int64     `json:"fullStalls"`
	FullStallCycles  int64     `json:"fullStallCycles"`
	EmptyStalls      int64     `json:"emptyStalls"`
	EmptyStallCycles int64     `json:"emptyStallCycles"`
	DepthMaxPerWin   []float64 `json:"depthMaxPerWindow"`
}

// busNames names WindowCounts.Busy's buses in the report.
var busNames = [3]string{"row", "col", "data"}

// Report snapshots the collector. Its totals are its series' sums: both
// come from the device's per-window counters.
func (c *Collector) Report() *Report {
	if c == nil {
		return nil
	}
	r := &Report{
		Cycles:           c.Cycles,
		Window:           c.Window,
		CPUStallCycles:   c.CPUStallCycles,
		Stalls:           map[string]int64{},
		BusBusyPerWindow: map[string][]int64{},
		StallsPerWindow:  map[string][]int64{},
		Decisions:        map[string]int64{},
	}
	for b, name := range busNames {
		r.BusBusyPerWindow[name] = c.column(func(w *WindowCounts) int64 { return w.Busy[b] })
	}
	for _, busy := range r.BusBusyPerWindow["data"] {
		r.DataBusBusy += busy
		// 4 bytes/cycle average while busy (16-byte packet per 4-cycle
		// t_PACK); one cycle is 2.5 ns.
		r.BandwidthMBps = append(r.BandwidthMBps, float64(busy*4)/(float64(c.Window)*2.5e-9)/1e6)
	}
	for _, cause := range StallCauses() {
		col := c.column(func(w *WindowCounts) int64 { return w.Stalls[cause] })
		var n int64
		for _, v := range col {
			n += v
		}
		if n != 0 {
			r.Stalls[cause.String()] = n
			r.StallsPerWindow[cause.String()] = col
			r.IdleCycles += n
		}
	}
	// Per-bank rows run up to the last bank that did anything.
	n := len(c.PerBank)
	for n > 0 && c.PerBank[n-1] == (BankCounters{}) {
		n--
	}
	if n > 0 {
		r.PerBank = c.PerBank[:n]
	}
	for _, b := range r.PerBank {
		r.Totals.Add(b)
	}
	if ctl := c.Controller; ctl != nil {
		for d, v := range ctl.Decisions {
			if v != 0 {
				r.Decisions[decisionNames[d]] = v
			}
		}
		if ctl.MissLatency.N() > 0 {
			r.MissLatency = ctl.MissLatency.Buckets()
			r.MissLatencyAvg = ctl.MissLatency.Mean()
		}
	}
	for _, f := range c.FIFOs {
		if f == nil {
			continue
		}
		r.FIFOs = append(r.FIFOs, FIFOReport{
			Name: f.Name, Serviced: f.Serviced,
			FullStalls: f.FullStalls, FullStallCycles: f.FullStallCycles,
			EmptyStalls: f.EmptyStalls, EmptyStallCycles: f.EmptyStallCycles,
			DepthMaxPerWin: f.Depth.Values(),
		})
	}
	if c.Events != nil {
		r.EventsTruncated = c.Events.Truncated
	}
	return r
}

// column returns one counter of every window, through the last window
// where it is nonzero (nil if it never is).
func (c *Collector) column(get func(*WindowCounts) int64) []int64 {
	n := len(c.Windows)
	for n > 0 && get(&c.Windows[n-1]) == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = get(&c.Windows[i])
	}
	return out
}

// WriteMetricsJSON writes the report as indented JSON.
func (c *Collector) WriteMetricsJSON(w io.Writer) error {
	if c == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Report())
}

// WriteSeriesCSV writes every time series as one CSV table: a
// window-start column followed by one column per series (bus occupancy,
// per-window bandwidth, FIFO depths, then the idle DATA-bus cycles of
// every stall cause), padded with zeros past each series' last nonzero
// or observed window.
func (c *Collector) WriteSeriesCSV(w io.Writer) error {
	if c == nil {
		return nil
	}
	type namedSeries struct {
		name string
		vals []float64
	}
	floats := func(vs []int64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = float64(v)
		}
		return out
	}
	rep := c.Report()
	var cols []namedSeries
	for _, b := range busNames {
		cols = append(cols, namedSeries{b + "_busy", floats(rep.BusBusyPerWindow[b])})
	}
	cols = append(cols, namedSeries{"bandwidth_mbps", rep.BandwidthMBps})
	for _, f := range c.FIFOs {
		if f != nil {
			cols = append(cols, namedSeries{"depth_" + f.Name, f.Depth.Values()})
		}
	}
	for _, cause := range StallCauses() {
		cols = append(cols, namedSeries{"stall_" + cause.String(), floats(rep.StallsPerWindow[cause.String()])})
	}
	n := 0
	for _, s := range cols {
		n = max(n, len(s.vals))
	}
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "window_start_cycle")
	for _, s := range cols {
		fmt.Fprintf(bw, ",%s", s.name)
	}
	fmt.Fprintln(bw)
	for i := 0; i < n; i++ {
		fmt.Fprint(bw, strconv.FormatInt(int64(i)*c.Window, 10))
		for _, s := range cols {
			v := 0.0
			if i < len(s.vals) {
				v = s.vals[i]
			}
			fmt.Fprintf(bw, ",%g", v)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// WriteEventsJSONL streams the captured events as JSON lines; it is an
// error to call it on a collector built without CaptureEvents.
func (c *Collector) WriteEventsJSONL(w io.Writer) error {
	if c == nil || c.Events == nil {
		return fmt.Errorf("telemetry: event capture was not enabled")
	}
	return WriteJSONL(w, c.Events.Events)
}

// WriteChromeTrace renders the captured events as Chrome trace-event JSON;
// it is an error to call it on a collector built without CaptureEvents.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	if c == nil || c.Events == nil {
		return fmt.Errorf("telemetry: event capture was not enabled")
	}
	return WriteChromeTrace(w, c.Events.Events)
}

// chromeEvent is one trace-event JSON record (Chrome trace-event format,
// "JSON object format" flavour inside a {"traceEvents": [...]} wrapper).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders captured events as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing. Each track becomes a named
// thread (one per bank, one per FIFO); span events render as complete
// ("X") slices and counter samples as counter ("C") tracks. One trace
// microsecond equals one simulated interface-clock cycle (2.5 ns of
// simulated time), so the timeline reads directly in cycles.
func WriteChromeTrace(w io.Writer, events []Event) error {
	// Assign stable tids: tracks in first-appearance order, then sorted by
	// name for deterministic metadata.
	tids := map[string]int{}
	var names []string
	for _, ev := range events {
		if _, ok := tids[ev.Track]; !ok {
			tids[ev.Track] = 0
			names = append(names, ev.Track)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		tids[n] = i + 1
	}
	out := make([]chromeEvent, 0, len(events)+len(names))
	for _, n := range names {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tids[n],
			Args: map[string]any{"name": n},
		})
	}
	for _, ev := range events {
		ce := chromeEvent{Name: ev.Name, Cat: "sim", Pid: 1, Tid: tids[ev.Track], Ts: float64(ev.Start)}
		if ev.Counter {
			ce.Ph = "C"
			ce.Args = map[string]any{"value": ev.Value}
		} else {
			ce.Ph = "X"
			dur := float64(ev.End - ev.Start)
			if dur <= 0 {
				dur = 1
			}
			ce.Dur = dur
		}
		out = append(out, ce)
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{out, "ns"}); err != nil {
		return err
	}
	return bw.Flush()
}
