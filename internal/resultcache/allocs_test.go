//go:build !race

// The race detector's sync.Pools drop items at random, so allocation
// counts are exact only without it.

package resultcache

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/sim"
	"rdramstream/internal/tracegen"
)

// Key builds its digest input in one pooled buffer: no per-field
// strings, no sort, no join, and no reflection over the default device.
// The budgets are the counts measured when the buffer was pooled (2 and
// 10 before; the Sprintf-and-join Key took 28 and 34).
func TestKeyAllocs(t *testing.T) {
	prog, err := tracegen.ParseProgram("llm-kvcache:n=2048,ctxrows=8", 5)
	if err != nil {
		t.Fatal(err)
	}
	accs, err := prog.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		sc     sim.Scenario
		budget float64
	}{
		{"kernel", scenario(), 1},
		{"trace", sim.Scenario{Scheme: addrmap.PI, Mode: sim.SMC, Workload: &tracegen.Spec{Accesses: accs}}, 9},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err = Key(tc.sc); err != nil {
				panic(err)
			}
		})
		t.Logf("%s: %.0f allocs", tc.name, allocs)
		if allocs > tc.budget {
			t.Errorf("Key(%s scenario) allocated %.0f times, want <= %.0f", tc.name, allocs, tc.budget)
		}
	}
}

// A program's key digests its expansion through a pooled buffer, so a
// warm Key costs the same bytes whatever the program's length, up to
// tracegen.MaxPooledAccesses: expanding into a fresh buffer cost
// 197,016 B at 12,288 chase accesses and 1,048,984 B at 65,536.
func TestKeyProgramBytes(t *testing.T) {
	bytesPerKey := func(n int) uint64 {
		sc := sim.Scenario{Scheme: addrmap.PI, Mode: sim.SMC, Workload: &tracegen.Spec{Program: &tracegen.Program{
			Seed: 7, Phases: []tracegen.Phase{{Pattern: tracegen.PatternChase, Accesses: n}},
		}}}
		key := func() {
			if _, err := Key(sc); err != nil {
				t.Fatal(err)
			}
		}
		// As testing.AllocsPerRun does, measure on one P, so that the
		// pools stay with the goroutine, and with the collector paused.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		key() // grows the pooled buffer to n accesses
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		// The fewest bytes of a few rounds: another goroutine's
		// allocation can land in one.
		const rounds, runs = 3, 10
		best := uint64(math.MaxUint64)
		for r := 0; r < rounds; r++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < runs; i++ {
				key()
			}
			runtime.ReadMemStats(&m1)
			best = min(best, (m1.TotalAlloc-m0.TotalAlloc)/runs)
		}
		return best
	}
	short, long := bytesPerKey(12288), bytesPerKey(65536)
	t.Logf("warm Key: %d B at 12,288 accesses, %d B at 65,536", short, long)
	if short != long {
		t.Errorf("warm Key of a chase program: %d B at 12,288 accesses, %d B at 65,536; want equal", short, long)
	}
}
