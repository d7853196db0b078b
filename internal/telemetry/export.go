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

	Totals  BankCounters   `json:"totals"`
	PerBank []BankCounters `json:"perBank"`

	// BusBusyPerWindow gives ROW/COL/DATA busy cycles per window.
	BusBusyPerWindow map[string][]float64 `json:"busBusyPerWindow"`
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

// Report snapshots the collector.
func (c *Collector) Report() *Report {
	if c == nil {
		return nil
	}
	dev := &c.Counters
	r := &Report{
		Cycles:           c.Cycles,
		Window:           c.Window,
		DataBusBusy:      dev.DataBusBusy,
		Stalls:           map[string]int64{},
		BusBusyPerWindow: map[string][]float64{},
	}
	for i, v := range dev.Stalls {
		r.IdleCycles += v
		if v != 0 {
			r.Stalls[StallCause(i).String()] = v
		}
	}
	// Per-bank rows run up to the last bank that did anything.
	n := len(dev.PerBank)
	for n > 0 && dev.PerBank[n-1] == (BankCounters{}) {
		n--
	}
	if n > 0 {
		r.PerBank = dev.PerBank[:n]
	}
	for _, b := range r.PerBank {
		r.Totals.Add(b)
	}
	row, col, data := c.Device.BusSeries()
	r.BusBusyPerWindow["row"] = row.Values()
	r.BusBusyPerWindow["col"] = col.Values()
	r.BusBusyPerWindow["data"] = data.Values()
	// 4 bytes/cycle average while busy (16-byte packet per 4-cycle t_PACK);
	// one cycle is 2.5 ns.
	for _, busy := range data.Values() {
		bytes := busy * 4
		r.BandwidthMBps = append(r.BandwidthMBps, bytes/(float64(c.Window)*2.5e-9)/1e6)
	}
	if ctl := c.Controller; ctl != nil {
		if len(ctl.Decisions) > 0 {
			r.Decisions = ctl.Decisions
		}
		if ctl.MissLatency.N() > 0 {
			r.MissLatency = ctl.MissLatency.Buckets()
			r.MissLatencyAvg = ctl.MissLatency.Mean()
		}
		r.CPUStallCycles = ctl.CPUStallCycles
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
// per-window bandwidth, FIFO depths), padded with zeros past each series'
// last observation.
func (c *Collector) WriteSeriesCSV(w io.Writer) error {
	if c == nil {
		return nil
	}
	type namedSeries struct {
		name string
		vals []float64
	}
	row, col, data := c.Device.BusSeries()
	cols := []namedSeries{
		{"row_busy", row.Values()},
		{"col_busy", col.Values()},
		{"data_busy", data.Values()},
	}
	rep := c.Report()
	cols = append(cols, namedSeries{"bandwidth_mbps", rep.BandwidthMBps})
	for _, f := range c.FIFOs {
		if f != nil {
			cols = append(cols, namedSeries{"depth_" + f.Name, f.Depth.Values()})
		}
	}
	n := 0
	for _, s := range cols {
		if len(s.vals) > n {
			n = len(s.vals)
		}
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
