package fabric_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdramstream/internal/fabric"
	"rdramstream/internal/service"
	"rdramstream/internal/sim"
)

// TestSeededPlansDeterministic: a seed names one fault schedule forever.
func TestSeededPlansDeterministic(t *testing.T) {
	a := fabric.SeededPlans(42, 5, 4)
	b := fabric.SeededPlans(42, 5, 4)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("plan counts: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan %d diverges across derivations: %+v vs %+v", i, a[i], b[i])
		}
	}
	sabotaged := 0
	for _, p := range a {
		if p != (fabric.ChaosPlan{}) {
			sabotaged++
		}
	}
	if sabotaged == 0 {
		t.Fatal("seeded schedule sabotaged no worker")
	}
	if c := fabric.SeededPlans(43, 5, 4); len(c) != 5 {
		t.Fatalf("plan count for seed 43: %d", len(c))
	}
}

// TestChaosFleetByteIdentity is the tentpole acceptance test: a fleet
// under a seeded chaos schedule — workers killed and stalled mid-sweep —
// still merges every sweep byte-identical to a local sim.RunAll, in
// input order, duplicate-free.
func TestChaosFleetByteIdentity(t *testing.T) {
	for _, seed := range []int64{1, 7, 1999} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			plans := fabric.SeededPlans(seed, 4, 3)
			f := newFleet(t, 4, plans, fabric.Config{
				// Stalled attempts must unwedge without a caller deadline.
				AttemptTimeout:     300 * time.Millisecond,
				MaxScenarioRetries: 2,
			})
			scs := mixedSweep(20)
			sw, err := f.co.StartSweep(context.Background(), scs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := collect(t, sw, len(scs))
			if err != nil {
				t.Fatal(err)
			}
			assertByteIdentical(t, scs, got)
			if sw.Duplicates() != 0 {
				t.Fatalf("seed %d: %d duplicate landings", seed, sw.Duplicates())
			}
			var kills, stalls int64
			for _, cb := range f.chaos {
				kills += cb.Kills()
				stalls += cb.Stalls()
			}
			if kills+stalls == 0 {
				t.Fatalf("seed %d: chaos schedule never fired", seed)
			}
			st := f.co.Stats()
			if st.WorkerFailures == 0 {
				t.Fatalf("seed %d: faults fired but no worker failure was booked", seed)
			}
			t.Logf("seed %d: kills=%d stalls=%d reshards=%d local=%d remote=%d",
				seed, kills, stalls, st.Reshards, st.LocalScenarios, st.RemoteScenarios)
		})
	}
}

// TestHTTPWorkerKilledMidSweep kills a real HTTP worker mid-stream:
// three rdserved handlers behind httptest servers, reached through the
// default client dial, serve three concurrent sweeps; worker 0's server
// is hard-closed right after it streams its first row. Every sweep must
// still merge byte-identical to a local sim.RunAll, duplicate-free, with
// the failure booked.
func TestHTTPWorkerKilledMidSweep(t *testing.T) {
	co, err := fabric.NewCoordinator(fabric.Config{
		Local:             newService(t),
		HeartbeatInterval: -1,
		RetryBackoff:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)

	fired, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	var victim *httptest.Server
	for i := 0; i < 3; i++ {
		h := service.NewHandler(newService(t))
		if i == 0 {
			inner := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/sweep" {
					w = &firstRowWriter{ResponseWriter: w, first: &first, fired: fired, release: release}
				}
				inner.ServeHTTP(w, r)
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		if i == 0 {
			victim = ts
		}
		if err := co.Register(ts.URL); err != nil {
			t.Fatal(err)
		}
	}

	// 36 distinct scenarios over 3 sweeps: the chance that none hashes
	// to worker 0 (so nothing is killed) is (2/3)^36, below 1e-6.
	all := mixedSweep(36)
	sweeps := make([]*fabric.Sweep, 3)
	for k := range sweeps {
		if sweeps[k], err = co.StartSweep(context.Background(), all[12*k:12*(k+1)]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	got := make([][]sim.Outcome, len(sweeps))
	errs := make([]error, len(sweeps))
	for k, sw := range sweeps {
		wg.Add(1)
		go func(k int, sw *fabric.Sweep) {
			defer wg.Done()
			got[k], errs[k] = collect(t, sw, 12)
		}(k, sw)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// A held row keeps its sweep from finishing, so done cannot win the
	// race once fired has happened.
	select {
	case <-fired:
		victim.CloseClientConnections()
		close(release)
		victim.Close()
		<-done
	case <-done:
		t.Fatal("worker 0 never streamed a row, so it was never killed")
	}
	for k, sw := range sweeps {
		if errs[k] != nil {
			t.Fatalf("sweep %d: %v", k, errs[k])
		}
		assertByteIdentical(t, all[12*k:12*(k+1)], got[k])
		if sw.Duplicates() != 0 {
			t.Fatalf("sweep %d: %d duplicate landings", k, sw.Duplicates())
		}
	}
	st := co.Stats()
	if st.WorkerFailures == 0 {
		t.Fatalf("killed worker booked no failure: %+v", st)
	}
	t.Logf("failures=%d reshards=%d local=%d remote=%d",
		st.WorkerFailures, st.Reshards, st.LocalScenarios, st.RemoteScenarios)
}

// firstRowWriter passes a sweep response through. The first row any
// wrapped response writes (first is shared) is flushed to the client,
// then fired is closed and the write holds until release: the kill
// lands while that sweep is mid-stream, never after it has finished.
type firstRowWriter struct {
	http.ResponseWriter
	first          *atomic.Bool
	fired, release chan struct{}
}

func (w *firstRowWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	if w.first.CompareAndSwap(false, true) {
		w.Flush()
		close(w.fired)
		<-w.release
	}
	return n, err
}

func (w *firstRowWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// collect drains a sweep in input order into outcomes, failing on any
// per-scenario error.
func collect(t *testing.T, sw *fabric.Sweep, n int) ([]sim.Outcome, error) {
	t.Helper()
	out := make([]sim.Outcome, n)
	for i := 0; i < n; i++ {
		l, err := sw.WaitResult(context.Background(), i)
		if err != nil {
			return nil, err
		}
		if l.Error != "" {
			return nil, fmt.Errorf("scenario %d (%s): %s", i, l.Label, l.Error)
		}
		out[i] = *l.Outcome
	}
	return out, nil
}
