//go:build !race

// The race detector's runtime changes what a run allocates, so byte
// counts are exact only without it.

package workload_test

import (
	"runtime"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/workload"
)

// replayBytes returns the heap bytes one replay of accs under opt
// allocates, averaged over a few runs on fresh devices.
func replayBytes(t *testing.T, opt workload.TraceOptions, accs []workload.TraceAccess) uint64 {
	t.Helper()
	const runs = 5
	devs := make([]*rdram.Device, runs)
	for i := range devs {
		devs[i] = timingDevice()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, dev := range devs {
		if _, err := workload.ReplayTrace(dev, opt, accs); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / runs
}

// TestReplayTraceBytes checks that a replay's heap bytes do not grow with
// its trace: the reorder window holds a fixed number of transactions, fed
// on demand from the coalescer, where a list of every transaction would
// double with the trace.
func TestReplayTraceBytes(t *testing.T) {
	short, long := kvTrace(t, 12288), kvTrace(t, 24576)
	for _, s := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
		for _, reorder := range []bool{false, true} {
			opt := workload.TraceOptions{Scheme: s, LineWords: 4, Reorder: reorder}
			if a, b := replayBytes(t, opt, short), replayBytes(t, opt, long); a != b {
				t.Errorf("%v reorder=%v: %d B for %d accesses, %d B for %d", s, reorder, a, len(short), b, len(long))
			}
		}
	}
}

// TestReplayTraceDeepWindowBytes checks that a window deeper than the
// trace costs what a window exactly as deep as the trace's transactions
// does, and no more than 48 B a transaction beyond a default window's
// replay: the ring never outgrows the trace, whatever depth is asked for.
func TestReplayTraceDeepWindowBytes(t *testing.T) {
	accs := kvTrace(t, 24576)
	txns := 0
	for i, a := range accs {
		if i == 0 || a.Addr/4 != accs[i-1].Addr/4 {
			txns++
		}
	}
	if txns*2 > len(accs) {
		t.Fatalf("%d transactions of %d accesses: the trace should coalesce", txns, len(accs))
	}
	opt := workload.TraceOptions{Scheme: addrmap.PI, LineWords: 4, Reorder: true}
	base := replayBytes(t, opt, accs)
	opt.Window = txns
	exact := replayBytes(t, opt, accs)
	opt.Window = 1 << 30
	deep := replayBytes(t, opt, accs)
	if deep != exact {
		t.Errorf("window %d: %d B, window %d (the trace's transactions): %d B", opt.Window, deep, txns, exact)
	}
	if limit := base + 48*uint64(txns); deep > limit {
		t.Errorf("window %d: %d B for %d transactions, want at most %d", opt.Window, deep, txns, limit)
	}
}
