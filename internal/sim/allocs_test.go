//go:build !race

// The race detector's sync.Pools drop items at random, so allocation
// counts are exact only without it.

package sim

import (
	"runtime"
	"runtime/debug"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/tracegen"
)

// TestRunTraceAllocs checks that a warm trace run allocates a fixed
// number of times, and a fixed number of bytes, however long its
// program: the program expands into the run's scratch buffer and the
// reorder window holds a fixed number of transactions, so twice the
// accesses, in order or reordered, may add neither an allocation nor a
// byte.
func TestRunTraceAllocs(t *testing.T) {
	for _, c := range []string{"natural-order", "smc"} {
		allocs := func(n int) (mallocs, bytes uint64) {
			sc := Scenario{
				Scheme: addrmap.PI, Controller: c,
				Workload: &tracegen.Spec{Program: &tracegen.Program{Seed: 7, Phases: []tracegen.Phase{
					{Pattern: tracegen.PatternLLMKV, Accesses: n, ContextRows: 32},
				}}},
			}
			return runAllocs(t, 5, func() {
				if _, err := Run(sc); err != nil {
					t.Fatal(err)
				}
			})
		}
		ma, ba := allocs(12288)
		mb, bb := allocs(24576)
		t.Logf("%s: %d allocs, %d B per run", c, ma, ba)
		if ma != mb || ba != bb {
			t.Errorf("%s: %d allocs (%d B) for 12288 accesses, %d (%d B) for 24576", c, ma, ba, mb, bb)
		}
	}
}

// runAllocs is testing.AllocsPerRun with bytes: the heap allocations and
// bytes per call of f over runs calls, after a warm-up call, on one P and
// with the collector paused, so that the scratch pool keeps what the
// warm-up left in it.
func runAllocs(t *testing.T, runs int, f func()) (mallocs, bytes uint64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.Mallocs - m0.Mallocs) / uint64(runs), (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
}
