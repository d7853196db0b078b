//go:build !race

// The race detector's sync.Pools drop items at random, so allocation
// counts are exact only without it.

package resultcache

import (
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
