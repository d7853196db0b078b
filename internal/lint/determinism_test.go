package lint

import "testing"

func TestDeterminism(t *testing.T) {
	runFixtureCases(t, Determinism, []fixtureCase{
		{
			name: "core package flags time, global rand, and env reads",
			dirs: []string{"determinism"},
		},
		{
			name: "non-core package may read the wall clock",
			dirs: []string{"determinism/clock"},
		},
		{
			name: "engine is core: wall-clock timing there still trips",
			dirs: []string{"determinism/engine"},
		},
		{
			name: "obs is the observability layer: wall-clock reads are legal",
			dirs: []string{"determinism/obs"},
		},
		{
			name: "event-queue scheduling: wall-clock bounds and rand tie-breaks trip, pure event-min does not",
			dirs: []string{"determinism/smc"},
		},
		{
			name: "shard ring is core: assignment never consults the clock or global rand",
			dirs: []string{"determinism/shard"},
		},
		{
			name: "trace generator is core: expansion never consults the clock, global rand, or env",
			dirs: []string{"determinism/tracegen"},
		},
		{
			name: "telemetry is core: probe events carry simulated cycles, never the wall clock",
			dirs: []string{"determinism/telemetry"},
		},
		{
			name: "both together still only flag the core",
			dirs: []string{"determinism", "determinism/clock"},
		},
		{
			name: "core and observability side by side flag only the core",
			dirs: []string{"determinism/engine", "determinism/obs"},
		},
	})
}
