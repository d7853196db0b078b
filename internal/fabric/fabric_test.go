package fabric_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/fabric"
	"rdramstream/internal/resultcache"
	"rdramstream/internal/service"
	"rdramstream/internal/sim"
	"rdramstream/internal/stream"
	"rdramstream/internal/version"
)

func scenario(n int) sim.Scenario {
	return sim.Scenario{
		KernelName: "daxpy", N: n, Scheme: addrmap.PI, Mode: sim.SMC,
		FIFODepth: 32, Placement: stream.Staggered,
	}
}

// mixedSweep builds a sweep diverse enough to spread across a ring.
func mixedSweep(n int) []sim.Scenario {
	kernels := []string{"copy", "daxpy"}
	scs := make([]sim.Scenario, 0, n)
	for i := 0; i < n; i++ {
		sc := scenario(64 + 32*i)
		sc.KernelName = kernels[i%len(kernels)]
		scs = append(scs, sc)
	}
	return scs
}

func newService(t *testing.T) *service.Service {
	t.Helper()
	svc, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Close(ctx)
	})
	return svc
}

// fleet is a coordinator over n in-process workers, each optionally
// wrapped in a chaos plan. plans may be nil (healthy fleet) or shorter
// than n (remaining workers healthy).
type fleet struct {
	co      *fabric.Coordinator
	workers []*service.Service
	chaos   []*fabric.ChaosBackend
}

func newFleet(t *testing.T, n int, plans []fabric.ChaosPlan, cfg fabric.Config) *fleet {
	t.Helper()
	f := &fleet{}
	backends := make(map[string]fabric.Backend, n)
	for i := 0; i < n; i++ {
		svc := newService(t)
		f.workers = append(f.workers, svc)
		var b fabric.Backend = &fabric.ServiceBackend{Svc: svc}
		var plan fabric.ChaosPlan
		if i < len(plans) {
			plan = plans[i]
		}
		cb := &fabric.ChaosBackend{Inner: b, Plan: plan}
		f.chaos = append(f.chaos, cb)
		backends[fmt.Sprintf("http://w%d:1", i)] = cb
	}
	cfg.Local = newService(t)
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = -1 // tests drive ProbeAll directly
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	cfg.Dial = func(addr string) fabric.Backend { return backends[addr] }
	co, err := fabric.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	for addr := range backends {
		if err := co.Register(addr); err != nil {
			t.Fatal(err)
		}
	}
	f.co = co
	return f
}

// assertByteIdentical is the package's correctness oracle: whatever path
// the fabric routed each scenario through, the merged outcomes must be
// byte-identical JSON to a local sim.RunAll.
func assertByteIdentical(t *testing.T, scs []sim.Scenario, got []sim.Outcome) {
	t.Helper()
	want, err := sim.RunAll(scs, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("fabric outcomes diverge from local sim.RunAll\nlocal:  %.200s\nfabric: %.200s", wantJSON, gotJSON)
	}
}

// TestZeroWorkersLocalFallback is the acceptance criterion for the
// bottom of the degradation ladder: a coordinator with no registered
// workers still serves correct results via its local service.
func TestZeroWorkersLocalFallback(t *testing.T) {
	f := newFleet(t, 0, nil, fabric.Config{})
	scs := mixedSweep(6)
	got, err := f.co.RunAll(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, scs, got)
	st := f.co.Stats()
	if st.RemoteScenarios != 0 {
		t.Fatalf("no workers, yet %d remote scenarios", st.RemoteScenarios)
	}
	if st.LocalScenarios != int64(len(scs)) {
		t.Fatalf("local fallback ran %d of %d scenarios", st.LocalScenarios, len(scs))
	}
}

func TestDistributedSweepMatchesLocal(t *testing.T) {
	f := newFleet(t, 3, nil, fabric.Config{})
	scs := mixedSweep(12)
	got, err := f.co.RunAll(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, scs, got)
	st := f.co.Stats()
	if st.RemoteScenarios != int64(len(scs)) {
		t.Fatalf("healthy fleet: want all %d scenarios remote, got %d (local %d)",
			len(scs), st.RemoteScenarios, st.LocalScenarios)
	}
	if st.Reshards != 0 || st.WorkerFailures != 0 {
		t.Fatalf("healthy fleet recorded reshards=%d failures=%d", st.Reshards, st.WorkerFailures)
	}
}

// TestMidStreamKillReshardsOnlyUnacked is the partial-failure acceptance
// test: a worker dying after streaming some rows must cause only its
// unacknowledged scenarios to be re-sharded, and the merged result must
// be duplicate-free and byte-identical to local execution.
func TestMidStreamKillReshardsOnlyUnacked(t *testing.T) {
	// Worker 0 delivers 2 rows then dies, once; workers 1..2 are healthy.
	plans := []fabric.ChaosPlan{{KillAfterRows: 2, MisbehaveSweeps: 1}}
	f := newFleet(t, 3, plans, fabric.Config{})
	scs := mixedSweep(16)
	sw, err := f.co.StartSweep(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]sim.Outcome, len(scs))
	for i := range scs {
		l, err := sw.WaitResult(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if l.Error != "" {
			t.Fatalf("scenario %d (%s): %s", i, l.Label, l.Error)
		}
		got[i] = *l.Outcome
	}
	assertByteIdentical(t, scs, got)
	if sw.Duplicates() != 0 {
		t.Fatalf("merged stream had %d duplicate landings", sw.Duplicates())
	}
	if f.chaos[0].Kills() == 0 {
		t.Fatal("chaos plan never fired: worker 0 was not killed mid-stream")
	}
	// Only the killed worker's unacked share was re-sharded: strictly
	// fewer re-assignments than the sweep has scenarios, and the 2 rows
	// it delivered before dying were never re-run.
	if r := sw.Reshards(); r == 0 || r >= int64(len(scs)-2) {
		t.Fatalf("reshards = %d, want in [1, %d)", r, len(scs)-2)
	}
	if st := f.co.Stats(); st.WorkerFailures == 0 {
		t.Fatal("mid-stream death booked no worker failure")
	}
}

// TestAlwaysFailingWorkerFallsBackLocally drives a scenario through the
// whole ladder: remote attempts exhaust, breaker opens, local fallback
// answers.
func TestAlwaysFailingWorkerFallsBackLocally(t *testing.T) {
	plans := []fabric.ChaosPlan{{KillAfterRows: 1}} // misbehave forever
	f := newFleet(t, 1, plans, fabric.Config{
		MaxScenarioRetries: 2,
		BreakerThreshold:   2,
		BreakerCooldown:    time.Hour, // stays open for the whole test
	})
	scs := mixedSweep(8)
	got, err := f.co.RunAll(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, scs, got)
	st := f.co.Stats()
	if st.LocalScenarios == 0 {
		t.Fatal("exhausted retries never fell back to local execution")
	}
	ws := f.co.Workers()
	if len(ws) != 1 || ws[0].State != fabric.WorkerBreakerOpen {
		t.Fatalf("worker state = %+v, want one breaker_open worker", ws)
	}
	if st.Live != 0 {
		t.Fatalf("breaker-open worker still counted live (%d)", st.Live)
	}
}

// TestAdmissionControlSheds verifies the top of the ladder: with the
// in-flight bound reached, further sweeps shed with ErrSaturated rather
// than queueing.
func TestAdmissionControlSheds(t *testing.T) {
	// A permanently stalling worker keeps the first sweep in flight until
	// we cancel it.
	plans := []fabric.ChaosPlan{{StallAfterRows: 1}}
	f := newFleet(t, 1, plans, fabric.Config{
		MaxInFlightSweeps:  1,
		MaxScenarioRetries: 1000,
	})
	ctx, cancel := context.WithCancel(context.Background())
	sw, err := f.co.StartSweep(ctx, mixedSweep(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.co.StartSweep(context.Background(), mixedSweep(2)); !errors.Is(err, fabric.ErrSaturated) {
		t.Fatalf("second sweep: err = %v, want ErrSaturated", err)
	}
	if st := f.co.Stats(); st.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Shed)
	}
	cancel()
	<-sw.Done() // every slot lands the cancellation cause; no waiter hangs
	if _, err := sw.WaitResult(context.Background(), 0); err != nil {
		t.Fatalf("Wait after cancel: %v (slots must land, not hang)", err)
	}
}

// TestPeerCacheTier: a result cached on its owning worker is served to
// the coordinator's local cache through the peer tier without rerunning.
func TestPeerCacheTier(t *testing.T) {
	f := newFleet(t, 2, nil, fabric.Config{})
	scs := mixedSweep(6)
	// Populate the workers' caches through a distributed sweep.
	if _, err := f.co.RunAll(context.Background(), scs); err != nil {
		t.Fatal(err)
	}
	// Now ask the coordinator's local service directly: the lookup should
	// be rescued by the key's owning worker, not re-simulated.
	before := f.co.Stats().PeerHits
	sc := scs[0]
	key, err := resultcache.Key(sc)
	if err != nil {
		t.Fatal(err)
	}
	ownerHas := false
	for _, w := range f.workers {
		if _, ok := w.Cache().Peek(key); ok {
			ownerHas = true
		}
	}
	if !ownerHas {
		t.Fatal("sanity: no worker cached the scenario after the sweep")
	}
	out, cached, err := f.co.LocalService().Cache().Do(context.Background(), sc,
		func(sim.Scenario) (sim.Outcome, error) { return sim.Run(sc) })
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("peer-tier lookup missed: scenario re-simulated locally")
	}
	if f.co.Stats().PeerHits <= before {
		t.Fatalf("peer hits did not advance (before %d, after %d)", before, f.co.Stats().PeerHits)
	}
	direct, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := json.Marshal(out); string(a) != string(mustJSON(t, direct)) {
		t.Fatal("peer-served outcome differs from direct simulation")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHTTPSweepStream drives the full HTTP surface: coordinator handler
// over a chaotic fleet, asserting the NDJSON stream is in input order,
// duplicate-free, and terminated by one summary line.
func TestHTTPSweepStream(t *testing.T) {
	plans := []fabric.ChaosPlan{{KillAfterRows: 1, MisbehaveSweeps: 1}}
	f := newFleet(t, 3, plans, fabric.Config{})
	h := fabric.Handler(f.co, service.NewHandler(f.co.LocalService()))
	ts := httptest.NewServer(h)
	defer ts.Close()

	scs := mixedSweep(10)
	body := mustJSON(t, service.SweepRequest{Scenarios: scs})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	want, err := sim.RunAll(scs, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, len(scs))
	var summary *service.SweepLine
	next := 0
	for dec.More() {
		var l service.SweepLine
		if err := dec.Decode(&l); err != nil {
			t.Fatal(err)
		}
		if l.Done {
			summary = &l
			break
		}
		if l.Index != next {
			t.Fatalf("stream out of order: got index %d, want %d", l.Index, next)
		}
		if seen[l.Index] {
			t.Fatalf("index %d delivered twice", l.Index)
		}
		seen[l.Index] = true
		next++
		if l.Error != "" {
			t.Fatalf("scenario %d: %s", l.Index, l.Error)
		}
		if string(mustJSON(t, *l.Outcome)) != string(mustJSON(t, want[l.Index])) {
			t.Fatalf("scenario %d outcome diverges from local", l.Index)
		}
	}
	if summary == nil {
		t.Fatal("stream ended without a summary line")
	}
	if summary.Total != len(scs) || summary.Failed != 0 {
		t.Fatalf("summary = %+v", summary)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("scenario %d never streamed", i)
		}
	}

	// Register + workers endpoints round-trip.
	regBody := mustJSON(t, service.RegisterRequest{Addr: "http://10.0.0.9:8347"})
	rr, err := http.Post(ts.URL+"/v1/fabric/register", "application/json", bytes.NewReader(regBody))
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("register status %d", rr.StatusCode)
	}
	wresp, err := http.Get(ts.URL + "/v1/fabric/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	var fleetResp fabric.FleetResponse
	if err := json.NewDecoder(wresp.Body).Decode(&fleetResp); err != nil {
		t.Fatal(err)
	}
	if len(fleetResp.Workers) != 4 {
		t.Fatalf("workers = %d, want 4 (3 fleet + 1 registered)", len(fleetResp.Workers))
	}

	// Metrics expose the fabric series.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, series := range []string{"rd_fabric_workers", "rd_fabric_sweeps_total", "rd_fabric_reshards_total"} {
		if !strings.Contains(text, series) {
			t.Fatalf("metrics exposition missing %s", series)
		}
	}
}

// TestHTTPSaturationIs429 maps ErrSaturated to 429 + Retry-After on the
// wire.
func TestHTTPSaturationIs429(t *testing.T) {
	plans := []fabric.ChaosPlan{{StallAfterRows: 1}}
	f := newFleet(t, 1, plans, fabric.Config{
		MaxInFlightSweeps:  1,
		MaxScenarioRetries: 1000,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sw, err := f.co.StartSweep(ctx, mixedSweep(3))
	if err != nil {
		t.Fatal(err)
	}
	h := fabric.Handler(f.co, service.NewHandler(f.co.LocalService()))
	ts := httptest.NewServer(h)
	defer ts.Close()
	body := mustJSON(t, service.SweepRequest{Scenarios: mixedSweep(2)})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	cancel()
	<-sw.Done()
}

// TestDeadWorkerLeavesRing drives health directly: a worker whose probes
// fail past the heartbeat timeout is marked dead and its scenarios land
// elsewhere.
func TestDeadWorkerLeavesRing(t *testing.T) {
	base := time.Unix(1700000000, 0)
	now := base
	plans := []fabric.ChaosPlan{{FailHealth: true, KillAfterRows: 1}}
	f := newFleet(t, 2, plans, fabric.Config{
		HeartbeatTimeout: 10 * time.Second,
		Now:              func() time.Time { return now },
	})
	// Probe once within the timeout: failing but not yet dead.
	f.co.ProbeAll(context.Background())
	if ws := f.co.Workers(); ws[0].State == fabric.WorkerDead || ws[1].State != fabric.WorkerLive {
		t.Fatalf("premature death: %+v", ws)
	}
	// Advance past the timeout; the failing worker dies, the healthy one
	// was seen by its successful probe and lives.
	now = base.Add(11 * time.Second)
	f.co.ProbeAll(context.Background())
	ws := f.co.Workers()
	if ws[0].State != fabric.WorkerDead {
		t.Fatalf("worker 0 = %+v, want dead", ws[0])
	}
	if ws[1].State != fabric.WorkerLive {
		t.Fatalf("worker 1 = %+v, want live", ws[1])
	}
	scs := mixedSweep(6)
	got, err := f.co.RunAll(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, scs, got)
	// Re-registration revives the dead worker (worker-initiated heartbeat).
	if err := f.co.Register("http://w0:1"); err != nil {
		t.Fatal(err)
	}
	if ws := f.co.Workers(); ws[0].State != fabric.WorkerLive {
		t.Fatalf("after re-register, worker 0 = %+v, want live", ws[0])
	}
}

// TestSimulateThroughFabric routes a single scenario through the fabric
// and checks the cache cooperates across calls.
func TestSimulateThroughFabric(t *testing.T) {
	f := newFleet(t, 2, nil, fabric.Config{})
	sc := scenario(128)
	direct, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	first, err := simulate(f.co, sc)
	if err != nil {
		t.Fatal(err)
	}
	if string(mustJSON(t, first.Outcome)) != string(mustJSON(t, direct)) {
		t.Fatal("fabric simulate outcome diverges from direct sim.Run")
	}
	second, err := simulate(f.co, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical simulate was not served from the owner's cache")
	}
	if first.Key == "" || first.Key != second.Key {
		t.Fatalf("content keys diverge: %q vs %q", first.Key, second.Key)
	}
}

// simulate runs one scenario through the fabric's Submit and shapes the
// result like a POST /v1/simulate body.
func simulate(co *fabric.Coordinator, sc sim.Scenario) (service.SimulateResponse, error) {
	job, err := co.Submit(context.Background(), []sim.Scenario{sc})
	if err != nil {
		return service.SimulateResponse{}, err
	}
	res, err := job.WaitResult(context.Background(), 0)
	if err != nil {
		return service.SimulateResponse{}, err
	}
	if res.Error != "" {
		return service.SimulateResponse{}, errors.New(res.Error)
	}
	return service.SimulateResponse{JobID: job.ID(), Cached: res.Cached, Key: job.Key(0), Outcome: *res.Outcome}, nil
}

// TestSweepValidationRejectsWhole mirrors the local service's contract:
// one malformed scenario rejects the entire sweep before anything runs.
func TestSweepValidationRejectsWhole(t *testing.T) {
	f := newFleet(t, 1, nil, fabric.Config{})
	scs := mixedSweep(3)
	scs[1].KernelName = "no-such-kernel"
	if _, err := f.co.StartSweep(context.Background(), scs); err == nil {
		t.Fatal("malformed sweep was accepted")
	}
	if _, err := f.co.StartSweep(context.Background(), nil); !errors.Is(err, fabric.ErrEmptySweep) {
		t.Fatalf("empty sweep: err = %v, want ErrEmptySweep", err)
	}
}

// staleBackend is a worker that reports stamp instead of its build's
// version stamp. Tests change stamp only between probes.
type staleBackend struct {
	fabric.Backend
	stamp string
}

func (b *staleBackend) Health(ctx context.Context) (string, error) {
	if _, err := b.Backend.Health(ctx); err != nil {
		return "", err
	}
	return b.stamp, nil
}

// TestStaleWorkerGetsNoRows: a worker that reports another version stamp
// runs another model, so it takes no shards (its rows would differ from
// the coordinator's outcomes) until a probe finds it on the
// coordinator's stamp. The mismatch shows in the stats and in /metrics.
func TestStaleWorkerGetsNoRows(t *testing.T) {
	good, stale := newService(t), newService(t)
	sb := &staleBackend{Backend: &fabric.ServiceBackend{Svc: stale}, stamp: "another-build"}
	backends := map[string]fabric.Backend{
		"http://w0:1": &fabric.ServiceBackend{Svc: good},
		"http://w1:1": sb,
	}
	local := newService(t)
	co, err := fabric.NewCoordinator(fabric.Config{
		Local: local, HeartbeatInterval: -1, RetryBackoff: time.Millisecond,
		Dial: func(addr string) fabric.Backend { return backends[addr] },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	for _, addr := range []string{"http://w0:1", "http://w1:1"} {
		if err := co.Register(addr); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	// 24 distinct scenarios: with both workers on the ring, the chance
	// that none hashes to w1 is 2^-24.
	scs := mixedSweep(24)
	got, err := co.RunAll(ctx, scs)
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, scs, got)
	if n := stale.Metrics().Workers.TasksRun; n != 0 {
		t.Fatalf("the stale worker ran %d scenarios, want 0", n)
	}
	if n := good.Metrics().Workers.TasksRun; n != int64(len(scs)) {
		t.Fatalf("the current worker ran %d scenarios, want %d", n, len(scs))
	}
	st := co.Stats()
	if st.StampMismatches != 1 || st.Live != 1 || st.Workers != 2 {
		t.Fatalf("stats = %+v, want 1 stamp mismatch, 1 live of 2 workers", st)
	}
	if ws := co.Workers(); ws[1].State != fabric.WorkerStale {
		t.Fatalf("worker w1 = %+v, want %s", ws[1], fabric.WorkerStale)
	}
	// Re-registration and heartbeats keep asking; the mismatch counts
	// once per change of stamp.
	if err := co.Register("http://w1:1"); err != nil {
		t.Fatal(err)
	}
	co.ProbeAll(ctx)
	if n := co.Stats().StampMismatches; n != 1 {
		t.Fatalf("StampMismatches = %d after re-probing the same stamp, want 1", n)
	}
	ts := httptest.NewServer(fabric.Handler(co, service.NewHandler(local)))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "\nrd_fabric_stamp_mismatches_total 1\n") {
		t.Fatalf("/metrics lacks rd_fabric_stamp_mismatches_total 1:\n%s", text)
	}

	// Once the worker reports the coordinator's stamp, the health loop
	// puts it back on the ring.
	sb.stamp = version.Stamp()
	co.ProbeAll(ctx)
	if ws := co.Workers(); ws[1].State != fabric.WorkerLive {
		t.Fatalf("worker w1 = %+v after reporting the current stamp, want live", ws[1])
	}
	more := mixedSweep(48)[24:]
	if got, err = co.RunAll(ctx, more); err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, more, got)
	if stale.Metrics().Workers.TasksRun == 0 {
		t.Fatal("the worker back on the current stamp got no rows")
	}
}

// TestFallbackSweepIsOneJob: a sweep that falls back to the
// coordinator's own service lands its rows in its own job; the local
// service registers no second job for them.
func TestFallbackSweepIsOneJob(t *testing.T) {
	f := newFleet(t, 0, nil, fabric.Config{})
	scs := mixedSweep(4)
	got, err := f.co.RunAll(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, scs, got)
	jobs := f.co.LocalService().Metrics().Jobs
	if jobs.Submitted != 1 || jobs.Retained != 1 || jobs.Active != 0 {
		t.Fatalf("jobs = %+v, want Submitted 1, Retained 1, Active 0", jobs)
	}
	if n := f.co.Stats().LocalScenarios; n != int64(len(scs)) {
		t.Fatalf("LocalScenarios = %d, want %d", n, len(scs))
	}
}
