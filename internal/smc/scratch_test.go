package smc

import (
	"runtime"
	"sync"
	"testing"

	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
)

// TestScratchSurvivesGC pins why runScratch sits on a free list: garbage
// collections between two runs must not drop the idle set, or every SMC
// scenario after an idle spell re-allocates its FIFO arrays and slabs.
func TestScratchSurvivesGC(t *testing.T) {
	cfg := DefaultConfig()
	runSMC(t, "daxpy", 256, 1, cfg, stream.Staggered)
	idle := getScratch()
	putScratch(idle)
	runtime.GC()
	runtime.GC()
	if got := getScratch(); got != idle {
		t.Errorf("idle scratch was dropped across two GCs")
	} else {
		putScratch(got)
	}
}

// TestScratchConcurrentRuns runs the SMC from more goroutines than
// GOMAXPROCS at once: every run must match the serial outcome, and the
// free list must keep no more than GOMAXPROCS idle sets.
func TestScratchConcurrentRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FIFODepth = 64
	want, _, _, _ := runSMC(t, "vaxpy", 512, 1, cfg, stream.Staggered)
	f, _ := stream.FactoryByName("vaxpy")
	bases := stream.MustLayout(cfg.Scheme, rdram.DefaultGeometry(), cfg.LineWords, f.Footprints(512, 1), stream.Staggered)
	const runs = 16
	results := make([]Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(rdram.NewDevice(rdram.DefaultConfig()), f.Make(bases, 512, 1), cfg)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if results[i] != want {
			t.Errorf("run %d: %+v, serial %+v", i, results[i], want)
		}
	}
	idleScratch.mu.Lock()
	n := len(idleScratch.sets)
	idleScratch.mu.Unlock()
	if n > runtime.GOMAXPROCS(0) {
		t.Errorf("free list holds %d idle sets, GOMAXPROCS is %d", n, runtime.GOMAXPROCS(0))
	}
}
