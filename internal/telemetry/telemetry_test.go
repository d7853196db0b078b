package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestSeriesWindowing(t *testing.T) {
	s := NewMaxSeries(10)
	s.Observe(0, 1)
	s.Observe(9, 2)
	s.Observe(10, 4)
	s.Observe(35, 8)
	s.Observe(36, 3) // below the bucket's maximum: kept out
	want := []float64{2, 4, 0, 8}
	got := s.Values()
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %g, want %g", i, got[i], want[i])
		}
	}
	s.Observe(-1, 100) // negative cycles are dropped, not a panic
	if got := s.Values(); got[0] != 2 {
		t.Errorf("negative Observe mutated bucket 0: %g", got[0])
	}
}

// TestWindowsSplitSpans checks that every count lands in the windows of
// its own cycles, split at boundaries, whatever order counts arrive in.
func TestWindowsSplitSpans(t *testing.T) {
	w := Windows{Width: 10}
	w.AddBusy(2, 5, 25) // 5 + 10 + 5 across three windows
	w.Reach(32)
	w.AddStall(StallColumn, 25, 32)
	w.AddBusy(0, 40, 44) // a later window first...
	w.AddBusy(0, 2, 6)   // ...then an earlier one
	w.AddBusy(1, 10, 10) // empty spans count nothing
	w.AddStall(StallActivate, 12, 11)
	want := []WindowCounts{
		{Busy: [3]int64{4, 0, 5}},
		{Busy: [3]int64{0, 0, 10}},
		{Busy: [3]int64{0, 0, 5}},
		{},
		{Busy: [3]int64{4, 0, 0}},
	}
	want[2].Stalls[StallColumn] = 5
	want[3].Stalls[StallColumn] = 2
	if !reflect.DeepEqual(w.Counts, want) {
		t.Errorf("windows = %+v, want %+v", w.Counts, want)
	}
	// The total credited equals the span length regardless of cuts.
	w = Windows{Width: 7}
	w.Reach(60)
	w.AddStall(StallActivate, 3, 60)
	var total int64
	for _, c := range w.Counts {
		total += c.Stalls[StallActivate]
	}
	if total != 57 || len(w.Counts) != 9 {
		t.Errorf("span total = %d over %d windows, want 57 over 9", total, len(w.Counts))
	}
}

func TestSeriesNilSafe(t *testing.T) {
	var s *Series
	s.Observe(0, 1)
	if s.Values() != nil {
		t.Error("nil series not empty")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(10, 20, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{5, 10, 11, 40, 41, 1000} {
		h.Observe(v)
	}
	bks := h.Buckets()
	wantCounts := []int64{2, 1, 1, 2} // ≤10, ≤20, ≤40, overflow
	for i, w := range wantCounts {
		if bks[i].Count != w {
			t.Errorf("bucket %d count = %d, want %d", i, bks[i].Count, w)
		}
	}
	if !bks[3].Overflow {
		t.Error("last bucket not marked overflow")
	}
	if bks[3].Le != 1000 {
		t.Errorf("overflow bucket bound = %d, want the largest sample 1000", bks[3].Le)
	}
	if got, want := h.Mean(), float64(5+10+11+40+41+1000)/6; got != want {
		t.Errorf("mean = %g, want %g", got, want)
	}
}

func TestHistogramBadBounds(t *testing.T) {
	for _, bounds := range [][]int64{{10, 10}, {20, 10}, {1, 2, 2}} {
		if _, err := NewHistogram(bounds...); err == nil {
			t.Errorf("NewHistogram(%v): no error for non-ascending bounds", bounds)
		}
	}
	// A nil histogram from a rejected construction must stay inert.
	h, _ := NewHistogram(10, 10)
	h.Observe(3)
	if h.N() != 0 {
		t.Error("rejected histogram recorded a sample")
	}
}

func TestMustHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustHistogram did not panic on non-ascending bounds")
		}
	}()
	MustHistogram(10, 10)
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(3)
	if h.N() != 0 || h.Mean() != 0 || h.Sum() != 0 {
		t.Error("nil histogram not zero")
	}
	if h.Buckets() != nil {
		t.Error("nil histogram has buckets")
	}
}

func TestEventBufferLimit(t *testing.T) {
	b := &EventBuffer{Limit: 2}
	for i := 0; i < 5; i++ {
		b.Append(Event{Track: "t", Name: "e", Start: int64(i)})
	}
	if len(b.Events) != 2 {
		t.Errorf("kept %d events, want 2", len(b.Events))
	}
	if !b.Truncated {
		t.Error("buffer over limit not marked truncated")
	}
	var nilBuf *EventBuffer
	nilBuf.Append(Event{}) // must not panic
}

func TestStallCauseNames(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range StallCauses() {
		s := c.String()
		if s == "" || s == "unknown" {
			t.Errorf("cause %d has no name: %q", int(c), s)
		}
		if seen[s] {
			t.Errorf("duplicate cause name %q", s)
		}
		seen[s] = true
	}
	if len(seen) != int(NumStallCauses) {
		t.Errorf("%d named causes, want %d", len(seen), NumStallCauses)
	}
	if got := StallCause(250).String(); got != "unknown" {
		t.Errorf("out-of-range cause = %q", got)
	}
}

// TestProbesNilSafe drives every probe method through a nil receiver — the
// contract that lets the simulators instrument unconditionally.
func TestProbesNilSafe(t *testing.T) {
	var f *FIFOProbe
	f.OnDepth(0, 3)
	f.OnService(0, 4, false)
	f.OnBlocked(0, 4, true)
	var c *ControllerProbe
	c.OnDecision(DecisionRoundRobin)
	c.ObserveMissLatency(12)
	var col *Collector
	col.Finalize(100, 0, nil, nil)
	if col.FIFO(0, "x") != nil {
		t.Error("nil collector minted a FIFO probe")
	}
	if col.Report() != nil {
		t.Error("nil collector produced a report")
	}
}

// TestReportCountersAndSeries checks the report's counter half — totals
// summed from the device's per-bank rows, rows trimmed after the last
// active bank — and its per-bus series, each running through its last
// busy window, with the DATA bus's total their sum.
func TestReportCountersAndSeries(t *testing.T) {
	c := New(Options{Window: 8})
	w := Windows{Width: 8}
	w.AddBusy(0, 0, 4)
	w.AddBusy(0, 4, 8)
	w.AddBusy(1, 8, 12)
	w.AddBusy(1, 12, 16)
	w.AddBusy(2, 12, 16)
	w.AddBusy(2, 16, 20)
	c.Finalize(20, 0, []BankCounters{
		{Reads: 1},
		{Activates: 1, Precharges: 1, Writes: 1, Retires: 1, PageHits: 1, PageMisses: 2, PageConflicts: 1},
		{}, {},
	}, w.Counts)

	rep := c.Report()
	tot := rep.Totals
	if tot.Activates != 1 || tot.Precharges != 1 || tot.Reads != 1 || tot.Writes != 1 || tot.Retires != 1 {
		t.Errorf("totals = %+v", tot)
	}
	if tot.PageHits != 1 || tot.PageConflicts != 1 || tot.PageMisses != 2 {
		t.Errorf("page outcomes = %+v", tot)
	}
	if got := len(rep.PerBank); got != 2 {
		t.Errorf("banks = %d, want 2 (rows through the last active bank)", got)
	}
	if rep.DataBusBusy != 8 {
		t.Errorf("data busy = %d, want 8", rep.DataBusBusy)
	}
	want := map[string][]int64{"row": {8}, "col": {0, 8}, "data": {0, 4, 4}}
	if !reflect.DeepEqual(rep.BusBusyPerWindow, want) {
		t.Errorf("bus series = %v, want %v", rep.BusBusyPerWindow, want)
	}
	if want := []float64{0, 800, 800}; !reflect.DeepEqual(rep.BandwidthMBps, want) {
		t.Errorf("bandwidth = %v, want %v", rep.BandwidthMBps, want)
	}
}

// TestStallAccounting checks the report's stall half: idle cycles sum the
// device's per-window stall counts, and the maps name only the nonzero
// causes.
func TestStallAccounting(t *testing.T) {
	c := New(Options{Window: 10})
	w := Windows{Width: 10}
	w.Reach(25)
	w.AddStall(StallDependency, 0, 10)
	w.AddStall(StallColumn, 20, 25)
	c.Finalize(25, 0, nil, w.Counts)
	rep := c.Report()
	if rep.IdleCycles != 15 {
		t.Errorf("idle total = %d, want 15", rep.IdleCycles)
	}
	want := map[string]int64{"dependency": 10, "column": 5}
	if !reflect.DeepEqual(rep.Stalls, want) {
		t.Errorf("stalls = %v, want %v", rep.Stalls, want)
	}
	wantWin := map[string][]int64{"dependency": {10}, "column": {0, 0, 5}}
	if !reflect.DeepEqual(rep.StallsPerWindow, wantWin) {
		t.Errorf("stalls per window = %v, want %v", rep.StallsPerWindow, wantWin)
	}
	if rep.PerBank != nil {
		t.Errorf("per-bank rows %v with no banks", rep.PerBank)
	}
}

func TestCollectorFIFOGetOrCreate(t *testing.T) {
	c := New(Options{Window: 16})
	a := c.FIFO(2, "write y")
	if len(c.FIFOs) != 3 || c.FIFOs[0] != nil || c.FIFOs[1] != nil {
		t.Fatalf("FIFO slice = %v", c.FIFOs)
	}
	if b := c.FIFO(2, "ignored"); b != a {
		t.Error("second FIFO(2) minted a new probe")
	}
	a.OnDepth(3, 7)
	a.OnBlocked(10, 14, true)
	a.OnBlocked(14, 15, false)
	if a.FullStalls != 1 || a.FullStallCycles != 4 || a.EmptyStalls != 1 || a.EmptyStallCycles != 1 {
		t.Errorf("stalls = %+v", a)
	}
	a.OnBlocked(5, 5, true) // empty episode ignored
	if a.FullStalls != 1 {
		t.Error("zero-length episode counted")
	}
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{Track: "bank 0", Name: "ACT", Start: 0, End: 4},
		{Track: "fifo 0 read x", Name: "depth", Start: 7, Value: 3, Counter: true},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	for i, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if ev != events[i] {
			t.Errorf("line %d = %+v, want %+v", i, ev, events[i])
		}
	}
}

func TestWriteChromeTraceStructure(t *testing.T) {
	events := []Event{
		{Track: "bank 1", Name: "ACT", Start: 10, End: 14},
		{Track: "bank 0", Name: "DATA rd", Start: 20, End: 24},
		{Track: "fifo 0 read x", Name: "depth", Start: 5, Value: 2, Counter: true},
		{Track: "bank 0", Name: "PRER", Start: 30, End: 30}, // zero-length span
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// 3 tracks -> 3 metadata records + 4 events.
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("%d records, want 7", len(doc.TraceEvents))
	}
	// Metadata names the tracks deterministically (sorted), tids from 1.
	meta := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			meta[ev.Args["name"].(string)] = ev.Tid
		}
	}
	if meta["bank 0"] != 1 || meta["bank 1"] != 2 || meta["fifo 0 read x"] != 3 {
		t.Errorf("tids = %v", meta)
	}
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "C" && ev.Name == "depth":
			if ev.Args["value"].(float64) != 2 {
				t.Errorf("counter value = %v", ev.Args["value"])
			}
		case ev.Ph == "X" && ev.Name == "PRER":
			if ev.Dur != 1 {
				t.Errorf("zero-length span dur = %g, want 1", ev.Dur)
			}
		}
	}
}

func TestCollectorExporters(t *testing.T) {
	c := New(Options{Window: 4, CaptureEvents: true, EventLimit: 8})
	c.Events.Append(Event{Track: "bank 0", Name: "ACT", Start: 0, End: 4})
	c.Events.Append(Event{Track: "bank 0", Name: "DATA rd", Start: 4, End: 8})
	c.FIFO(0, "read x").OnDepth(2, 5)
	c.Controller.OnDecision(DecisionRoundRobin)
	c.Controller.ObserveMissLatency(20)
	w := Windows{Width: 4}
	w.AddBusy(0, 0, 4)
	w.AddBusy(2, 4, 8)
	w.Reach(8)
	w.AddStall(StallActivate, 0, 4)
	c.Finalize(8, 0, []BankCounters{{Activates: 1, Reads: 1, PageMisses: 1}}, w.Counts)

	rep := c.Report()
	if rep.Cycles != 8 || rep.DataBusBusy != 4 || rep.IdleCycles != 4 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Stalls["activate"] != 4 {
		t.Errorf("stalls = %v", rep.Stalls)
	}
	if rep.Decisions["roundrobin"] != 1 || len(rep.Decisions) != 1 || rep.MissLatencyAvg != 20 {
		t.Errorf("controller fields = %+v", rep)
	}

	var buf bytes.Buffer
	if err := c.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("metrics JSON invalid")
	}

	buf.Reset()
	if err := c.WriteSeriesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	header := lines[0]
	for _, wantCol := range []string{"window_start_cycle", "row_busy", "col_busy", "data_busy", "bandwidth_mbps", "depth_read x", "stall_activate", "stall_fault-retry"} {
		if !strings.Contains(header, wantCol) {
			t.Errorf("CSV header %q missing %q", header, wantCol)
		}
	}
	if len(lines) != 3 { // header + two 4-cycle windows
		t.Errorf("CSV has %d lines, want 3: %q", len(lines), buf.String())
	}

	buf.Reset()
	if err := c.WriteEventsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Errorf("JSONL lines = %d, want 3 (ACT, DATA, depth)", got)
	}
	buf.Reset()
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("chrome trace invalid")
	}
}

func TestExportersRequireCapture(t *testing.T) {
	c := New(Options{}) // no CaptureEvents
	var buf bytes.Buffer
	if err := c.WriteEventsJSONL(&buf); err == nil {
		t.Error("WriteEventsJSONL without capture did not error")
	}
	if err := c.WriteChromeTrace(&buf); err == nil {
		t.Error("WriteChromeTrace without capture did not error")
	}
}

func TestEventCaptureOffByDefault(t *testing.T) {
	c := New(Options{})
	if c.Events != nil {
		t.Error("event buffer allocated without CaptureEvents")
	}
	// The series do not need capture: they come from the device's windows.
	w := Windows{Width: c.Window}
	w.AddBusy(2, 0, 4)
	c.Finalize(4, 0, nil, w.Counts)
	if got := c.Report().BusBusyPerWindow["data"]; !reflect.DeepEqual(got, []int64{4}) {
		t.Errorf("data series = %v without capture, want [4]", got)
	}
}
