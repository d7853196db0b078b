package workload

import (
	"math/rand"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/telemetry"
)

// scatteredTrace builds a trace that ping-pongs between rows — the
// worst case for in-order open-page service and the best case for
// row-hit-first reordering.
func scatteredTrace(n int) []TraceAccess {
	rng := rand.New(rand.NewSource(11))
	accs := make([]TraceAccess, 0, n)
	for i := 0; i < n; i++ {
		row := rng.Int63n(64)
		accs = append(accs, TraceAccess{Addr: row*128 + rng.Int63n(32)*4, Write: rng.Float64() < 0.2})
	}
	return accs
}

// With Reorder off, ReplayTrace must match the cycles and device stats
// the deleted legacy in-order Replay produced on this trace (recorded
// when both paths existed and were pinned cycle-identical).
func TestReplayTraceMatchesReplay(t *testing.T) {
	want := map[addrmap.Scheme]rdram.Stats{
		addrmap.CLI: {Activates: 2048, Precharges: 2048, Reads: 3288, Writes: 808, PageHits: 2048, PageMisses: 2048,
			Retires: 325, DataBusBusy: 16384, LastDataEnd: 28790},
		addrmap.PI: {Activates: 1787, Precharges: 1779, Reads: 3288, Writes: 808, PageHits: 2309, PageMisses: 1787,
			PageConflicts: 1779, Retires: 325, DataBusBusy: 16384, LastDataEnd: 31460},
	}
	for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
		dev := rdram.NewDevice(rdram.DefaultConfig())
		got, err := ReplayTrace(dev, TraceOptions{Scheme: scheme, LineWords: 4}, scatteredTrace(2048))
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want[scheme].LastDataEnd {
			t.Errorf("%v: %d cycles, want %d", scheme, got.Cycles, want[scheme].LastDataEnd)
		}
		// The legacy replay kept no stall attribution: compare the rest,
		// and check the attribution tiles the idle time.
		st := got.Device
		st.Stalls = [telemetry.NumStallCauses]int64{}
		if st != want[scheme] {
			t.Errorf("%v: device stats diverge:\n  got  %+v\n  want %+v", scheme, st, want[scheme])
		}
		var idle int64
		for _, v := range got.Device.Stalls {
			idle += v
		}
		if want := got.Cycles - got.Device.DataBusBusy; idle != want {
			t.Errorf("%v: stalls sum to %d, want Cycles-DataBusBusy = %d", scheme, idle, want)
		}
	}
}

func TestReplaySequentialTraceStreams(t *testing.T) {
	accs := make([]TraceAccess, 4096)
	for i := range accs {
		accs[i] = TraceAccess{Addr: int64(i)}
	}
	dev := rdram.NewDevice(rdram.DefaultConfig())
	res, err := ReplayTrace(dev, TraceOptions{Scheme: addrmap.PI, LineWords: 4}, accs)
	if err != nil {
		t.Fatal(err)
	}
	// 4096 word touches = 1024 distinct lines, absorbed spatially.
	if res.TransferredWords != 4096 {
		t.Errorf("transferred %d words, want 4096 (1024 lines)", res.TransferredWords)
	}
	if res.PercentPeak < 90 {
		t.Errorf("sequential replay = %.1f%%", res.PercentPeak)
	}
}

func TestReplayAlternatingWriteReadPaysTurnarounds(t *testing.T) {
	// A pathological trace alternating write and read lines forces a bus
	// turnaround per pair — well below the sequential read rate.
	accs := make([]TraceAccess, 1024)
	seq := make([]TraceAccess, len(accs))
	for i := range accs {
		accs[i] = TraceAccess{Addr: int64(i) * 4, Write: i%2 == 0}
		seq[i] = TraceAccess{Addr: accs[i].Addr}
	}
	res, err := ReplayTrace(rdram.NewDevice(rdram.DefaultConfig()), TraceOptions{Scheme: addrmap.PI, LineWords: 4}, accs)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := ReplayTrace(rdram.NewDevice(rdram.DefaultConfig()), TraceOptions{Scheme: addrmap.PI, LineWords: 4}, seq)
	if err != nil {
		t.Fatal(err)
	}
	if res.PercentPeak >= res2.PercentPeak {
		t.Errorf("alternating W/R (%.1f%%) should trail pure reads (%.1f%%)", res.PercentPeak, res2.PercentPeak)
	}
	if res.Device.Retires == 0 {
		t.Error("expected retire activity from the alternation")
	}
}

// Reordering moves the same data — identical transferred words and
// device read/write packet counts — and must not be slower than trace
// order on a row-scattered open-page workload (that is its only job).
func TestReplayTraceReorder(t *testing.T) {
	accs := scatteredTrace(4096)
	d1 := rdram.NewDevice(rdram.DefaultConfig())
	natural, err := ReplayTrace(d1, TraceOptions{Scheme: addrmap.PI, LineWords: 4}, accs)
	if err != nil {
		t.Fatal(err)
	}
	d2 := rdram.NewDevice(rdram.DefaultConfig())
	reordered, err := ReplayTrace(d2, TraceOptions{Scheme: addrmap.PI, LineWords: 4, Reorder: true, Window: 32}, accs)
	if err != nil {
		t.Fatal(err)
	}
	if natural.TransferredWords != reordered.TransferredWords {
		t.Errorf("transferred words diverge: natural %d, reordered %d", natural.TransferredWords, reordered.TransferredWords)
	}
	if natural.Device.Reads != reordered.Device.Reads || natural.Device.Writes != reordered.Device.Writes {
		t.Errorf("packet counts diverge: natural %+v, reordered %+v", natural.Device, reordered.Device)
	}
	if reordered.Cycles > natural.Cycles {
		t.Errorf("reordering slowed the replay: %d > %d cycles", reordered.Cycles, natural.Cycles)
	}
	if reordered.Device.PageHits <= natural.Device.PageHits {
		t.Errorf("reordering found no extra page hits: %d vs %d", reordered.Device.PageHits, natural.Device.PageHits)
	}
}

// Under CLI auto-precharge there are no open rows to chase: the
// reordering scheduler must degenerate to exact trace order.
func TestReplayTraceReorderDegeneratesUnderCLI(t *testing.T) {
	accs := scatteredTrace(1024)
	d1 := rdram.NewDevice(rdram.DefaultConfig())
	natural, err := ReplayTrace(d1, TraceOptions{Scheme: addrmap.CLI, LineWords: 4}, accs)
	if err != nil {
		t.Fatal(err)
	}
	d2 := rdram.NewDevice(rdram.DefaultConfig())
	reordered, err := ReplayTrace(d2, TraceOptions{Scheme: addrmap.CLI, LineWords: 4, Reorder: true}, accs)
	if err != nil {
		t.Fatal(err)
	}
	if natural.Cycles != reordered.Cycles || natural.Device != reordered.Device {
		t.Errorf("CLI reorder diverged from trace order: %d vs %d cycles", reordered.Cycles, natural.Cycles)
	}
}

func TestReplayTraceValidation(t *testing.T) {
	dev := rdram.NewDevice(rdram.DefaultConfig())
	if _, err := ReplayTrace(dev, TraceOptions{Scheme: addrmap.PI, LineWords: 4}, nil); err == nil {
		t.Error("expected error for empty trace")
	}
	if _, err := ReplayTrace(dev, TraceOptions{Scheme: addrmap.PI, LineWords: 3}, []TraceAccess{{Addr: 0}}); err == nil {
		t.Error("expected error for bad line size")
	}
	if _, err := ReplayTrace(dev, TraceOptions{Scheme: addrmap.PI, LineWords: 4, Outstanding: rdram.MaxOutstanding + 1}, []TraceAccess{{Addr: 0}}); err == nil {
		t.Error("expected error for oversized pipeline depth")
	}
	if _, err := ReplayTrace(dev, TraceOptions{Scheme: addrmap.PI, LineWords: 4, Outstanding: -1}, []TraceAccess{{Addr: 0}}); err == nil {
		t.Error("expected error for negative pipeline depth")
	}
	if _, err := ReplayTrace(dev, TraceOptions{Scheme: addrmap.PI, LineWords: 4}, []TraceAccess{{Addr: 1 << 60}}); err == nil {
		t.Error("expected error for out-of-range address")
	}
}
