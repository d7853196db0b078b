package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/fault"
	"rdramstream/internal/obs"
	"rdramstream/internal/obs/promcheck"
	"rdramstream/internal/rdram"
	"rdramstream/internal/resultcache"
	"rdramstream/internal/service"
	"rdramstream/internal/sim"
	"rdramstream/internal/stream"
	"rdramstream/internal/tracegen"
)

var updateGolden = flag.Bool("update", false, "rewrite the /metrics golden file")

// refWriteJSON is the handlers' outcome encoder as it was first written
// — the whole response through an indenting json.Encoder — kept as the
// reference the envelope bodies must match byte for byte.
func refWriteJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serveOne runs one request through the handler and returns its status
// and body.
func serveOne(h http.Handler, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// identityScenarios are the scenarios whose bodies are pinned: a seeded
// draw over kernel, scheme, controller, N, stride, FIFO depth, device
// and fault config; the serve-rw benchmark's hot set and writer shapes;
// and a fault-injected run.
func identityScenarios(t *testing.T) []sim.Scenario {
	t.Helper()
	var scs []sim.Scenario
	rng := rand.New(rand.NewSource(28))
	for len(scs) < 12 {
		sc := sim.Scenario{
			KernelName: []string{"copy", "daxpy", "hydro", "vaxpy"}[rng.Intn(4)],
			N:          16 * (1 + rng.Intn(32)),
			Stride:     int64(1 + rng.Intn(3)),
			Scheme:     addrmap.Scheme(rng.Intn(2)),
			Controller: sim.Controllers()[rng.Intn(len(sim.Controllers()))],
			FIFODepth:  []int{8, 16, 32, 128}[rng.Intn(4)],
			Placement:  stream.Placement(rng.Intn(3)),
			Seed:       rng.Int63n(1 << 40),
		}
		if rng.Intn(2) == 0 {
			sc.Device = rdram.DefaultConfig()
			sc.Device.RefreshInterval = int64(200 + rng.Intn(2000))
		}
		if rng.Intn(2) == 0 {
			f := fault.Scaled(rng.Int63(), rng.Intn(4))
			sc.Fault = &f
		}
		if sc.Validate() == nil {
			scs = append(scs, sc)
		}
	}
	for _, k := range []string{"copy", "daxpy", "hydro", "vaxpy"} {
		for _, s := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			scs = append(scs, sim.Scenario{KernelName: k, N: 1024, Scheme: s, Controller: "smc", Seed: 7})
			for _, c := range []string{"natural-order", "smc"} {
				scs = append(scs, sim.Scenario{KernelName: k, N: 8192, Scheme: s, Controller: c, SkipVerify: true, Seed: 1 << 33})
			}
		}
	}
	f := fault.Scaled(3, 2)
	return append(scs, sim.Scenario{KernelName: "daxpy", N: 512, Scheme: addrmap.PI, Mode: sim.SMC, Fault: &f})
}

// checkBodies requests one scenario twice, a miss and then a hit, and
// compares both bodies and the GET /v1/cache/{key} body with what the
// reference encoder writes for a direct sim.Run.
func checkBodies(t *testing.T, h http.Handler, path string, body []byte, sc sim.Scenario) {
	t.Helper()
	direct, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	key, err := resultcache.Key(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, cached := range []bool{false, true} {
		code, raw := serveOne(h, http.MethodPost, path, body)
		if code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", path, sc.Label(), code, raw)
		}
		var got service.SimulateResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("%s %s: %v", path, sc.Label(), err)
		}
		want := refWriteJSON(t, service.SimulateResponse{JobID: got.JobID, Cached: cached, Key: key, Outcome: direct})
		if !bytes.Equal(raw, want) {
			t.Fatalf("%s %s (cached %v): body differs from the reference:\n--- got ---\n%s\n--- want ---\n%s",
				path, sc.Label(), cached, raw, want)
		}
	}
	code, raw := serveOne(h, http.MethodGet, "/v1/cache/"+key, nil)
	want := refWriteJSON(t, service.CacheEntryResponse{Key: key, Outcome: direct})
	if code != http.StatusOK || !bytes.Equal(raw, want) {
		t.Fatalf("GET /v1/cache/%s (%s): status %d, body differs from the reference:\n--- got ---\n%s\n--- want ---\n%s",
			key, sc.Label(), code, raw, want)
	}
}

// The /v1/simulate, /v1/trace and GET /v1/cache/{key} bodies, misses
// and hits alike, are byte-identical to the whole-response encoder's.
func TestResponseBodiesMatchReference(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close(context.Background()) })
	h := service.NewHandler(svc)

	for _, sc := range identityScenarios(t) {
		body, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		checkBodies(t, h, "/v1/simulate", body, sc)
	}

	// A trace as a program and as an access list over /v1/simulate (one
	// cache entry: the second is already a hit, so it gets its own
	// replay depth to start cold), and as NDJSON lines over /v1/trace.
	prog, accs := kvTrace(t)
	byProg := traceScenario()
	byProg.Workload = &tracegen.Spec{Program: prog}
	byAccs := traceScenario()
	byAccs.Workload = &tracegen.Spec{Accesses: accs, Outstanding: 2}
	for _, sc := range []sim.Scenario{byProg, byAccs} {
		body, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		checkBodies(t, h, "/v1/simulate", body, sc)
	}
	posted := traceScenario()
	posted.Scheme = addrmap.CLI
	hdr, err := json.Marshal(service.TraceHeader{Format: tracegen.FormatV1, Name: "kv", Accesses: len(accs), Scenario: posted})
	if err != nil {
		t.Fatal(err)
	}
	body := append(hdr, '\n')
	for _, a := range accs {
		body = tracegen.AppendLine(body, a)
	}
	posted.Workload = &tracegen.Spec{Accesses: accs}
	checkBodies(t, h, "/v1/trace", body, posted)
}

// After a fixed request sequence, under a frozen clock, /metrics renders
// exactly the pinned text, which is a valid exposition.
func TestMetricsTextPinned(t *testing.T) {
	epoch := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	o := obs.NewObserver(obs.ObserverOptions{Now: func() time.Time { return epoch }})
	svc, err := service.New(service.Config{Workers: 1, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close(context.Background()) })
	h := service.NewHandler(svc)

	sc := scenario(64)
	body, _ := json.Marshal(sc)
	key, _ := resultcache.Key(sc)
	sweep, _ := json.Marshal(service.SweepRequest{Scenarios: []sim.Scenario{scenario(64), scenario(96)}})
	for _, req := range []struct {
		method, path string
		body         []byte
	}{
		{"POST", "/v1/simulate", body},
		{"POST", "/v1/simulate", body},
		{"POST", "/v1/simulate", []byte(`{"KernelName": "nope"}`)},
		{"POST", "/v1/sweep", sweep},
		{"GET", "/v1/cache/" + key, nil},
		{"GET", "/v1/cache/nope", nil},
		{"GET", "/healthz", nil},
	} {
		serveOne(h, req.method, req.path, req.body)
	}
	// A job's last result lands just before the job is marked done, so
	// a response can return while its job still counts as active.
	for deadline := time.Now().Add(5 * time.Second); svc.Metrics().Jobs.Active > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	_, text := serveOne(h, http.MethodGet, "/metrics", nil)

	if _, err := promcheck.Check(text); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	goldenPath := filepath.Join("testdata", "metrics_sequence.txt")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, text, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(text, want) {
		t.Errorf("/metrics differs from the golden:\n--- got ---\n%s\n--- want ---\n%s", text, want)
	}
}
