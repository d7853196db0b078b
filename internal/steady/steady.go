// Package steady is the measurement protocol the pinned benchmarks share
// (BENCH_core_speed.json, docs/PERFORMANCE.md): a benchmark times its
// operation at the steady state a sweep loop runs in, so its allocs/op is
// an exact count that rdprof -check can gate on.
package steady

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// pausedBytes bounds what a loop may allocate with the collector paused:
// a run at the default -benchtime repeats a cheap op millions of times,
// and it keeps the collector running.
const pausedBytes = 64 << 20

// Loop runs op once untimed, to fill the scratch pools, then times b.N
// ops. While b.N ops allocate no more than pausedBytes (as many as the
// untimed op did each), the collector stays paused, so that a collection
// cannot empty a pool mid-measurement. It reports allocations: every
// goroutine's, so a served request counts its server's side too.
func Loop(b *testing.B, op func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	op()
	runtime.ReadMemStats(&m1)
	if uint64(b.N)*(m1.TotalAlloc-m0.TotalAlloc) <= pausedBytes {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
}
