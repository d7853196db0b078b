package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/cache"
	"rdramstream/internal/rdram"
	"rdramstream/internal/smc"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
)

// telemetryCombos enumerates every kernel × scheme × controller pairing
// the acceptance criteria cover.
func telemetryCombos() []Scenario {
	var out []Scenario
	for _, f := range stream.Benchmarks {
		for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			for _, mode := range []Mode{NaturalOrder, SMC} {
				out = append(out, Scenario{
					KernelName: f.Name, N: 512,
					Scheme: scheme, Mode: mode,
					Placement: stream.Staggered,
				})
			}
		}
	}
	return out
}

func comboName(sc Scenario) string {
	return fmt.Sprintf("%s/%v/%v", sc.KernelName, sc.Scheme, sc.Mode)
}

// TestTelemetryReconcilesWithDeviceStats asserts that the collector's
// report — the metrics.json of rdsim -profile — carries exactly the
// device's own counters for every kernel × {CLI, PI} × {natural, SMC}
// combination: report totals, DATA-bus occupancy and stalls equal the
// outcome's Stats, and the per-bank rows never exceed the bank count.
// That the device's per-bank counters sum to its totals on every outcome
// is TestStallInvariantOnEveryOutcome's to check.
func TestTelemetryReconcilesWithDeviceStats(t *testing.T) {
	for _, sc := range telemetryCombos() {
		sc := sc
		t.Run(comboName(sc), func(t *testing.T) {
			col := telemetry.New(telemetry.Options{Window: 512})
			sc.Telemetry = col
			out, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Verified {
				t.Fatal("run not verified")
			}
			rep := col.Report()
			if rep.Totals != opCounts(out.Device) {
				t.Errorf("report totals %+v, device stats %+v", rep.Totals, opCounts(out.Device))
			}
			if rep.DataBusBusy != out.Device.DataBusBusy {
				t.Errorf("report data busy %d, device %d", rep.DataBusBusy, out.Device.DataBusBusy)
			}
			for i, v := range out.Device.Stalls {
				if rep.Stalls[telemetry.StallCause(i).String()] != v {
					t.Errorf("report stall %v = %d, device %d", telemetry.StallCause(i), rep.Stalls[telemetry.StallCause(i).String()], v)
				}
			}
			if nb := len(rep.PerBank); nb > sc.Device.Geometry.Banks && sc.Device.Geometry.Banks > 0 {
				t.Errorf("report has %d bank rows, geometry has %d", nb, sc.Device.Geometry.Banks)
			}
		})
	}
}

// opCounts is the per-bank-counted part of a Stats.
func opCounts(st rdram.Stats) telemetry.BankCounters {
	return telemetry.BankCounters{
		Activates: st.Activates, Precharges: st.Precharges,
		Reads: st.Reads, Writes: st.Writes,
		PageHits: st.PageHits, PageMisses: st.PageMisses, PageConflicts: st.PageConflicts,
		Retires: st.Retires,
	}
}

// stallSum totals a Stats' per-cause idle cycles.
func stallSum(st rdram.Stats) int64 {
	var n int64
	for _, v := range st.Stalls {
		n += v
	}
	return n
}

// TestStallAttributionInvariant asserts the attribution invariant with a
// collector attached: the outcome's per-cause idle-cycle charges tile the
// run exactly — they sum to Cycles − DataBusBusy for every kernel ×
// scheme × controller combination — the report agrees, and attaching the
// collector changes nothing in the outcome.
func TestStallAttributionInvariant(t *testing.T) {
	for _, sc := range telemetryCombos() {
		sc := sc
		t.Run(comboName(sc), func(t *testing.T) {
			plain, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			col := telemetry.New(telemetry.Options{Window: 512})
			sc.Telemetry = col
			out, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if out != plain {
				t.Errorf("collector changed the outcome:\n%+v\n%+v", out, plain)
			}
			wantIdle := out.Cycles - out.Device.DataBusBusy
			if got := stallSum(out.Device); got != wantIdle {
				t.Errorf("stall attribution: per-cause sum %d, want Cycles-DataBusBusy = %d-%d = %d",
					got, out.Cycles, out.Device.DataBusBusy, wantIdle)
				for i, v := range out.Device.Stalls {
					if v != 0 {
						t.Logf("  %v: %d", telemetry.StallCause(i), v)
					}
				}
			}
			if col.Cycles != out.Cycles {
				t.Errorf("Finalize recorded %d cycles, outcome has %d", col.Cycles, out.Cycles)
			}
			// The report must agree with the device.
			rep := col.Report()
			var repSum int64
			for _, v := range rep.Stalls {
				repSum += v
			}
			if repSum != wantIdle || rep.IdleCycles != wantIdle {
				t.Errorf("report stall sum %d, idle %d, want %d", repSum, rep.IdleCycles, wantIdle)
			}
		})
	}
}

// TestStallAttributionVariants exercises the attribution under the
// harder scheduling variants: MSU policies, speculative activation,
// write-allocate, and a realistic cache in front of the natural-order
// controller.
func TestStallAttributionVariants(t *testing.T) {
	base := Scenario{KernelName: "daxpy", N: 512, Placement: stream.Staggered}
	variants := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"smc-bankaware", func(sc *Scenario) { sc.Mode = SMC; sc.Scheme = addrmap.PI; sc.Policy = smc.BankAware }},
		{"smc-hitfirst-speculate", func(sc *Scenario) {
			sc.Mode = SMC
			sc.Scheme = addrmap.PI
			sc.Policy = smc.HitFirst
			sc.SpeculateActivate = true
		}},
		{"smc-tiny-fifo", func(sc *Scenario) { sc.Mode = SMC; sc.Scheme = addrmap.CLI; sc.FIFODepth = 8 }},
		{"natural-writealloc", func(sc *Scenario) { sc.Mode = NaturalOrder; sc.Scheme = addrmap.CLI; sc.WriteAllocate = true }},
		{"natural-cache", func(sc *Scenario) {
			sc.Mode = NaturalOrder
			sc.Scheme = addrmap.PI
			sc.Cache = &cache.Config{SizeWords: 256, LineWords: 4, Ways: 2}
		}},
		{"smc-aligned", func(sc *Scenario) { sc.Mode = SMC; sc.Scheme = addrmap.PI; sc.Placement = stream.Aligned }},
		{"natural-refresh", func(sc *Scenario) {
			sc.Mode = NaturalOrder
			sc.Scheme = addrmap.CLI
			sc.Device = deviceWithRefresh()
		}},
	}
	for _, v := range variants {
		sc := base
		v.mut(&sc)
		t.Run(v.name, func(t *testing.T) {
			col := telemetry.New(telemetry.Options{Window: 256})
			sc.Telemetry = col
			out, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			wantIdle := out.Cycles - out.Device.DataBusBusy
			if got := stallSum(out.Device); got != wantIdle {
				t.Errorf("per-cause sum %d, want %d", got, wantIdle)
			}
			if rep := col.Report(); rep.IdleCycles != wantIdle {
				t.Errorf("report idle %d, want %d", rep.IdleCycles, wantIdle)
			}
		})
	}
}

// TestTelemetryChromeTraceValid generates the acceptance-criteria trace —
// daxpy, SMC, PI, FIFO depth 128 — and asserts it is valid trace-event
// JSON containing per-bank and per-FIFO tracks.
func TestTelemetryChromeTraceValid(t *testing.T) {
	col := telemetry.New(telemetry.Options{Window: 256, CaptureEvents: true})
	sc := Scenario{
		KernelName: "daxpy", N: 1024,
		Scheme: addrmap.PI, Mode: SMC, FIFODepth: 128,
		Placement: stream.Staggered,
		Telemetry: col,
	}
	if _, err := Run(sc); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	var bankTracks, fifoTracks int
	for _, ev := range doc.TraceEvents {
		if ev.Name != "thread_name" || ev.Ph != "M" {
			continue
		}
		name, _ := ev.Args["name"].(string)
		switch {
		case len(name) >= 4 && name[:4] == "bank":
			bankTracks++
		case len(name) >= 4 && name[:4] == "fifo":
			fifoTracks++
		}
	}
	if bankTracks == 0 {
		t.Error("no per-bank tracks in chrome trace")
	}
	if fifoTracks != 3 {
		t.Errorf("want 3 per-FIFO tracks for daxpy, got %d", fifoTracks)
	}
	// Spans and counter samples must both be present.
	var spans, counters bool
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans = true
		case "C":
			counters = true
		}
	}
	if !spans || !counters {
		t.Errorf("trace missing event kinds: spans=%v counters=%v", spans, counters)
	}
}

// TestTelemetryFIFOAccounting checks FIFO-level probes: every stream's
// packets are serviced, and a deliberately tiny FIFO starves.
func TestTelemetryFIFOAccounting(t *testing.T) {
	col := telemetry.New(telemetry.Options{Window: 256})
	sc := Scenario{
		KernelName: "daxpy", N: 512,
		Scheme: addrmap.CLI, Mode: SMC, FIFODepth: 8,
		Placement: stream.Staggered,
		Telemetry: col,
	}
	out, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.FIFOs) != 3 {
		t.Fatalf("daxpy has 3 streams, got %d FIFO probes", len(col.FIFOs))
	}
	var serviced int64
	for _, f := range col.FIFOs {
		serviced += f.Serviced
	}
	if want := out.Device.PacketCount(); serviced != want {
		t.Errorf("FIFO probes serviced %d packets, device moved %d", serviced, want)
	}
	if col.CPUStallCycles == 0 {
		t.Log("note: no CPU stalls with depth-8 FIFOs (unexpected but not fatal)")
	}
}

// deviceWithRefresh returns the default device with refresh enabled, to
// push refresh row activity through the attribution path.
func deviceWithRefresh() rdram.Config {
	cfg := rdram.DefaultConfig()
	cfg.RefreshInterval = 2048
	return cfg
}
