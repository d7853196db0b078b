package workload_test

import (
	"fmt"
	"slices"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/engine"
	"rdramstream/internal/rdram"
	"rdramstream/internal/tracegen"
	"rdramstream/internal/workload"
)

// scanWindows are the window depths the differential test covers: the
// one-transaction window, whose schedule is trace order, both sides of each
// 64-slot word boundary of the hit bits, and windows deeper than the
// short traces.
var scanWindows = []int{1, 2, 7, 8, 32, 63, 64, 65, 128, 129, 300}

// geometryOf returns the default device with banks banks, its rows
// scaled so the device keeps the default capacity.
func geometryOf(banks int) rdram.Config {
	cfg := rdram.DefaultConfig()
	cfg.Geometry.PagesPerBank = cfg.Geometry.PagesPerBank * cfg.Geometry.Banks / banks
	cfg.Geometry.Banks = banks
	return cfg
}

// replayed is one replay's record: the device's packets in issue order,
// its full Stats and the run's cycles.
type replayed struct {
	events []rdram.TraceEvent
	stats  rdram.Stats
	cycles int64
}

func replayOn(tb testing.TB, cfg rdram.Config, opt workload.TraceOptions, accs []workload.TraceAccess,
	replay func(*rdram.Device, workload.TraceOptions, []workload.TraceAccess) (engine.Result, error)) replayed {
	tb.Helper()
	dev := rdram.NewDevice(cfg)
	dev.SetTimingOnly(true)
	var rec rdram.Recorder
	dev.Trace = rec.Hook()
	res, err := replay(dev, opt, accs)
	if err != nil {
		tb.Fatal(err)
	}
	return replayed{events: rec.Events, stats: res.Device, cycles: res.Cycles}
}

// matchScan replays accs reordered through window w on cfg under PI, by
// ReplayTrace and by the reference scan, and reports the first way the
// two differ.
func matchScan(tb testing.TB, cfg rdram.Config, accs []workload.TraceAccess, w int) error {
	opt := workload.TraceOptions{Scheme: addrmap.PI, LineWords: 4, Reorder: true, Window: w}
	got := replayOn(tb, cfg, opt, accs, workload.ReplayTrace)
	want := replayOn(tb, cfg, opt, accs, workload.ReplayScan)
	if i := firstDiff(got.events, want.events); i >= 0 {
		return fmt.Errorf("issue order diverges at packet %d of %d/%d:\n  got  %v\n  want %v",
			i, len(got.events), len(want.events), eventAt(got.events, i), eventAt(want.events, i))
	}
	if got.stats != want.stats {
		return fmt.Errorf("device stats diverge:\n  got  %+v\n  want %+v", got.stats, want.stats)
	}
	if got.cycles != want.cycles {
		return fmt.Errorf("%d cycles, want %d", got.cycles, want.cycles)
	}
	return nil
}

// firstDiff is the index of the first event where a and b differ, or
// -1 when they are equal.
func firstDiff(a, b []rdram.TraceEvent) int {
	if slices.Equal(a, b) {
		return -1
	}
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func eventAt(evs []rdram.TraceEvent, i int) any {
	if i < len(evs) {
		return evs[i]
	}
	return "end of trace"
}

// program generates one seeded phase of n accesses.
func program(tb testing.TB, seed int64, ph tracegen.Phase, n int) []workload.TraceAccess {
	tb.Helper()
	ph.Accesses = n
	p := tracegen.Program{Seed: seed, Phases: []tracegen.Phase{ph}}
	accs, err := p.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	return accs
}

// TestReorderMatchesScan replays seeded traces reordered under PI
// through every window of scanWindows and checks that the indexed window
// issues exactly what the reference scan does: the same packets in the
// same order, the same full Stats and the same cycles. The traces are
// row-scattered, chase, hot-row and llm-kvcache on the default part, on
// a 2-bank and on a 32-bank device, and traces shorter than the deeper
// windows.
func TestReorderMatchesScan(t *testing.T) {
	chase := tracegen.Phase{Pattern: tracegen.PatternChase, WriteFraction: 0.1}
	hot := tracegen.Phase{Pattern: tracegen.PatternHotRow, WriteFraction: 0.2}
	kv := tracegen.Phase{Pattern: tracegen.PatternLLMKV, ContextRows: 32}
	cases := []struct {
		name string
		cfg  rdram.Config
		accs []workload.TraceAccess
	}{
		{"scattered", rdram.DefaultConfig(), workload.ScatteredTrace(4096)},
		{"chase", rdram.DefaultConfig(), program(t, 21, chase, 4096)},
		{"hot-row", rdram.DefaultConfig(), program(t, 22, hot, 4096)},
		{"llm-kvcache", rdram.DefaultConfig(), program(t, 23, kv, 4096)},
		{"scattered/2-bank", geometryOf(2), workload.ScatteredTrace(4096)},
		{"hot-row/2-bank", geometryOf(2), program(t, 24, hot, 4096)},
		{"scattered/32-bank", geometryOf(32), workload.ScatteredTrace(4096)},
		{"hot-row/32-bank", geometryOf(32), program(t, 25, hot, 4096)},
		{"scattered/short", rdram.DefaultConfig(), workload.ScatteredTrace(40)},
		{"hot-row/short", rdram.DefaultConfig(), program(t, 26, hot, 100)},
		{"scattered/one", rdram.DefaultConfig(), workload.ScatteredTrace(1)},
	}
	for _, c := range cases {
		for _, w := range scanWindows {
			if err := matchScan(t, c.cfg, c.accs, w); err != nil {
				t.Errorf("%s window %d: %v", c.name, w, err)
			}
		}
	}
}

// FuzzReorderMatchesScan draws a trace, a window and a bank count from
// the fuzz bytes and checks the indexed window against the reference
// scan. The first byte picks the window (1 to 256), the second the
// device (2, 8 or 32 banks); every further pair of bytes is one access:
// the first byte picks one of 256 pages near the bottom of memory, few
// enough that rows recur, the second the line within it, its top bit
// the direction.
func FuzzReorderMatchesScan(f *testing.F) {
	f.Add([]byte{31, 1, 0, 0, 8, 1, 0, 2, 8, 0x83, 16, 4, 0, 5})
	f.Add([]byte{63, 0, 1, 0, 2, 0, 1, 1, 2, 1, 1, 2, 2, 2, 1, 3})
	f.Add([]byte{64, 2, 9, 0x80, 9, 1, 17, 2, 9, 3, 25, 4, 17, 5})
	f.Add([]byte{0, 1, 5, 5, 5, 6, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		w := int(data[0]) + 1
		cfg := geometryOf([]int{2, 8, 32}[int(data[1])%3])
		var accs []workload.TraceAccess
		for i := 2; i+1 < len(data); i += 2 {
			accs = append(accs, workload.TraceAccess{
				Addr:  int64(data[i])*128 + int64(data[i+1]&0x1f)*4,
				Write: data[i+1]&0x80 != 0,
			})
		}
		if err := matchScan(t, cfg, accs, w); err != nil {
			t.Fatalf("window %d, %d banks, %d accesses: %v", w, cfg.Geometry.Banks, len(accs), err)
		}
	})
}
