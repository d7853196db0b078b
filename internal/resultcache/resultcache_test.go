package resultcache

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/fault"
	"rdramstream/internal/rdram"
	"rdramstream/internal/sim"
	"rdramstream/internal/steady"
	"rdramstream/internal/stream"
)

func scenario() sim.Scenario {
	return sim.Scenario{
		KernelName: "daxpy", N: 256, Scheme: addrmap.PI, Mode: sim.SMC,
		FIFODepth: 32, Placement: stream.Staggered,
	}
}

// mustJSON is the byte-identity yardstick: two outcomes are "the same
// result" iff their canonical JSON encodings are equal bytes.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(data)
}

func TestKeyCanonicalization(t *testing.T) {
	base := scenario()
	key, err := Key(base)
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	if len(key) != 64 {
		t.Fatalf("key %q is not a hex sha256", key)
	}

	// Spelling the same simulation differently must not change the key:
	// Mode vs. Controller, implicit vs. explicit defaults, attached
	// observers, inactive fault configs.
	named := base
	named.Mode = sim.NaturalOrder
	named.Controller = "smc"
	explicit := base
	explicit.LineWords = 4
	explicit.Stride = 1
	explicit.Device = rdram.DefaultConfig()
	inactiveFault := base
	inactiveFault.Fault = &fault.Config{Seed: 77} // zero severity: injects nothing
	for name, sc := range map[string]sim.Scenario{
		"controller-name":   named,
		"explicit-defaults": explicit,
		"inactive-fault":    inactiveFault,
	} {
		if k, _ := Key(sc); k != key {
			t.Errorf("%s: key %s != base %s", name, k, key)
		}
	}

	// Every outcome-affecting field must move the key.
	activeFault := fault.Scaled(7, 2)
	variants := map[string]func(*sim.Scenario){
		"kernel":     func(sc *sim.Scenario) { sc.KernelName = "copy" },
		"n":          func(sc *sim.Scenario) { sc.N = 512 },
		"stride":     func(sc *sim.Scenario) { sc.Stride = 4 },
		"scheme":     func(sc *sim.Scenario) { sc.Scheme = addrmap.CLI },
		"fifo":       func(sc *sim.Scenario) { sc.FIFODepth = 64 },
		"seed":       func(sc *sim.Scenario) { sc.Seed = 9 },
		"banks":      func(sc *sim.Scenario) { sc.Device = rdram.DefaultConfig(); sc.Device.Geometry.Banks = 16 },
		"controller": func(sc *sim.Scenario) { sc.Controller = "conventional" },
		"fault":      func(sc *sim.Scenario) { sc.Fault = &activeFault },
		"skipverify": func(sc *sim.Scenario) { sc.SkipVerify = true },
	}
	for name, mutate := range variants {
		sc := scenario()
		mutate(&sc)
		if k, _ := Key(sc); k == key {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

func TestHitIsBitIdenticalToFreshRun(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario()

	direct, err := sim.Run(sc)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	missed, hit, err := c.Do(context.Background(), sc, nil)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if hit {
		t.Fatal("first Do reported a hit on an empty cache")
	}
	cached, hit, err := c.Do(context.Background(), sc, nil)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !hit {
		t.Fatal("second Do missed")
	}
	for name, out := range map[string]sim.Outcome{"miss": missed, "hit": cached} {
		if !reflect.DeepEqual(out, direct) {
			t.Errorf("%s outcome differs from direct sim.Run:\n  got  %+v\n  want %+v", name, out, direct)
		}
		if got, want := mustJSON(t, out), mustJSON(t, direct); got != want {
			t.Errorf("%s outcome JSON differs from direct sim.Run:\n  got  %s\n  want %s", name, got, want)
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestSingleflightDeduplicates(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario()
	direct, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 8
	var runs atomic.Int64
	gate := make(chan struct{})
	runner := func(sc sim.Scenario) (sim.Outcome, error) {
		runs.Add(1)
		<-gate // hold the leader until every follower has queued up
		return sim.Run(sc)
	}

	var wg sync.WaitGroup
	outs := make([]sim.Outcome, callers)
	errs := make([]error, callers)
	started := make(chan struct{}, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			outs[i], _, errs[i] = c.Do(context.Background(), sc, runner)
		}()
	}
	for i := 0; i < callers; i++ {
		<-started
	}
	close(gate)
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Fatalf("runner executed %d times for %d concurrent identical requests, want 1", n, callers)
	}
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(outs[i], direct) {
			t.Errorf("caller %d outcome differs from direct run", i)
		}
	}
	// Exactly one miss; every other caller either piggybacked on the
	// flight (dedup) or, if scheduled after it landed, hit the cache.
	if st := c.Stats(); st.Misses != 1 || st.Hits+st.Dedups != callers-1 {
		t.Errorf("stats = %+v, want exactly 1 miss and %d hits+dedups", st, callers-1)
	}
}

func TestLRUEvictionBounds(t *testing.T) {
	c, err := New(Options{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(n int) sim.Scenario {
		sc := scenario()
		sc.N = n
		sc.SkipVerify = true
		return sc
	}
	for _, n := range []int{64, 128} {
		if _, _, err := c.Do(context.Background(), mk(n), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 64 so 128 is the least recently used, then insert a third.
	if _, hit, _ := c.Do(context.Background(), mk(64), nil); !hit {
		t.Fatal("expected hit for n=64")
	}
	if _, _, err := c.Do(context.Background(), mk(256), nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries and 1 eviction", st)
	}
	if _, hit, _ := c.Get(mk(64)); !hit {
		t.Error("recently used n=64 was evicted")
	}
	if _, hit, _ := c.Get(mk(128)); hit {
		t.Error("least recently used n=128 survived past capacity")
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sc := scenario()
	direct, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}

	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := c1.Do(context.Background(), sc, nil); err != nil || hit {
		t.Fatalf("first Do: hit=%v err=%v", hit, err)
	}
	key, _ := Key(sc)
	if _, err := os.Stat(filepath.Join(dir, key+".json")); err != nil {
		t.Fatalf("disk entry not written: %v", err)
	}

	// A fresh cache over the same directory — a restarted server — must
	// serve the stored outcome bit-identically, without running anything.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	poison := func(sim.Scenario) (sim.Outcome, error) {
		t.Fatal("disk-backed request ran a simulation")
		return sim.Outcome{}, nil
	}
	out, hit, err := c2.Do(context.Background(), sc, poison)
	if err != nil || !hit {
		t.Fatalf("disk-backed Do: hit=%v err=%v", hit, err)
	}
	if !reflect.DeepEqual(out, direct) {
		t.Errorf("disk round-trip outcome differs:\n  got  %+v\n  want %+v", out, direct)
	}
	if got, want := mustJSON(t, out), mustJSON(t, direct); got != want {
		t.Errorf("disk round-trip JSON differs:\n  got  %s\n  want %s", got, want)
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Errorf("stats = %+v, want 1 disk hit", st)
	}

	// Entries stamped by a different version must be ignored, not served.
	stale, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]any
	if err := json.Unmarshal(stale, &e); err != nil {
		t.Fatal(err)
	}
	e["version"] = "rdramstream 0.0.0 model=dead"
	rewritten, _ := json.Marshal(e)
	if err := os.WriteFile(filepath.Join(dir, key+".json"), rewritten, 0o644); err != nil {
		t.Fatal(err)
	}
	c3, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := c3.Get(sc); hit {
		t.Error("entry from a different version stamp was served")
	}
}

func TestPanickingRunnerDoesNotStrandFlight(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario()

	// Leader panics while followers are piggybacked on its flight: every
	// caller must get ErrPanic — nobody hangs on a dead flight.
	gate := make(chan struct{})
	panicky := func(sim.Scenario) (sim.Outcome, error) {
		<-gate
		panic("boom")
	}
	const callers = 4
	var wg sync.WaitGroup
	errs := make([]error, callers)
	started := make(chan struct{}, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			_, _, errs[i] = c.Do(context.Background(), sc, panicky)
		}()
	}
	for i := 0; i < callers; i++ {
		<-started
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrPanic) {
			t.Errorf("caller %d: err = %v, want ErrPanic", i, err)
		}
	}

	// The key must not be poisoned: a fresh Do with a working runner runs
	// immediately (no stranded flight to wait on) and succeeds.
	direct, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, hit, err := c.Do(ctx, sc, nil)
	if err != nil {
		t.Fatalf("Do after panic: %v", err)
	}
	if hit {
		t.Error("panicked run was cached")
	}
	if !reflect.DeepEqual(out, direct) {
		t.Errorf("outcome after panic differs from direct run")
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario()
	sc.N = 0 // invalid: sim.Run fails
	if _, _, err := c.Do(context.Background(), sc, nil); err == nil {
		t.Fatal("expected an error for an invalid scenario")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("failed run was cached: %+v", st)
	}
}

// BenchmarkKey times one kernel scenario's cache key: canonicalize,
// render and SHA-256.
func BenchmarkKey(b *testing.B) {
	sc := scenario()
	steady.Loop(b, func() {
		if _, err := Key(sc); err != nil {
			b.Fatal(err)
		}
	})
}
