package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rdramstream/internal/obs"
	"rdramstream/internal/obs/promcheck"
	"rdramstream/internal/service"
	"rdramstream/internal/sim"
)

func postSimulate(t *testing.T, url string, sc sim.Scenario, requestID string) *http.Response {
	t.Helper()
	body, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// getTrace polls GET /v1/requests/{id} until the trace reports Done —
// the middleware finishes it after the handler returns, which can land
// just after the client has the response body.
func getTrace(t *testing.T, url, id string) obs.TraceRecord {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/requests/" + id)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/requests/%s: status %d: %s", id, resp.StatusCode, raw)
		}
		var rec obs.TraceRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatalf("decoding trace %s: %v", raw, err)
		}
		if rec.Done {
			return rec
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never finished: %+v", id, rec)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRequestTracingEndToEnd(t *testing.T) {
	ts, _ := startServer(t)

	resp := postSimulate(t, ts.URL, scenario(64), "trace-me-1")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-1" {
		t.Errorf("X-Request-ID echoed as %q, want trace-me-1", got)
	}

	rec := getTrace(t, ts.URL, "trace-me-1")
	if rec.Route != "POST /v1/simulate" || rec.Status != http.StatusOK {
		t.Errorf("trace route/status = %q/%d", rec.Route, rec.Status)
	}
	if rec.Scenarios != 1 || rec.CacheHits != 0 {
		t.Errorf("trace counts = %d scenarios, %d cache hits; want 1, 0", rec.Scenarios, rec.CacheHits)
	}
	if rec.DurationUS <= 0 {
		t.Errorf("trace duration = %d", rec.DurationUS)
	}
	stages := map[string]bool{}
	for _, sp := range rec.Spans {
		stages[sp.Stage] = true
		if sp.StartUS < 0 || sp.EndUS < sp.StartUS {
			t.Errorf("span %+v has bad bounds", sp)
		}
	}
	for _, want := range []string{"queued", "batch_wait", "cache", "simulate", "stream"} {
		if !stages[want] {
			t.Errorf("miss trace has no %q span (spans: %+v)", want, rec.Spans)
		}
	}

	// A repeat of the same scenario is a memory hit, answered at submit:
	// its trace records the hit, a cache span and the stream span, and
	// never enters the queue or the simulate stage.
	resp = postSimulate(t, ts.URL, scenario(64), "trace-me-2")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rec = getTrace(t, ts.URL, "trace-me-2")
	if rec.CacheHits != 1 {
		t.Errorf("hit trace records %d cache hits, want 1", rec.CacheHits)
	}
	stages = map[string]bool{}
	for _, sp := range rec.Spans {
		stages[sp.Stage] = true
	}
	for _, want := range []string{"cache", "stream"} {
		if !stages[want] {
			t.Errorf("hit trace has no %q span (spans: %+v)", want, rec.Spans)
		}
	}
	for _, never := range []string{"queued", "batch_wait", "simulate"} {
		if stages[never] {
			t.Errorf("hit trace carries a %q span (spans: %+v)", never, rec.Spans)
		}
	}

	// Generated IDs: no header means the server assigns one.
	resp = postSimulate(t, ts.URL, scenario(128), "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	gen := resp.Header.Get("X-Request-ID")
	if !strings.HasPrefix(gen, "req-") {
		t.Errorf("generated request ID = %q, want req- prefix", gen)
	}
	getTrace(t, ts.URL, gen)

	// Unknown IDs are 404.
	r404, err := http.Get(ts.URL + "/v1/requests/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r404.Body)
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown request id: status %d, want 404", r404.StatusCode)
	}
}

func TestDebugRequestsFormats(t *testing.T) {
	ts, cl := startServer(t)
	if _, err := cl.Simulate(context.Background(), scenario(64)); err != nil {
		t.Fatal(err)
	}

	get := func(q string) (int, []byte, string) {
		resp, err := http.Get(ts.URL + "/debug/requests" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw, resp.Header.Get("Content-Type")
	}

	status, raw, _ := get("")
	if status != http.StatusOK {
		t.Fatalf("GET /debug/requests: status %d", status)
	}
	var recs []obs.TraceRecord
	if err := json.Unmarshal(raw, &recs); err != nil || len(recs) == 0 {
		t.Fatalf("trace list = %s (err %v)", raw, err)
	}

	status, raw, ct := get("?format=jsonl")
	if status != http.StatusOK || !strings.Contains(ct, "ndjson") {
		t.Errorf("jsonl: status %d content-type %q", status, ct)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Errorf("jsonl line %q: %v", line, err)
		}
	}

	status, raw, _ = get("?format=chrome")
	if status != http.StatusOK {
		t.Errorf("chrome: status %d", status)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("chrome trace = %s (err %v)", raw, err)
	}

	if status, _, _ = get("?format=bogus"); status != http.StatusBadRequest {
		t.Errorf("bogus format: status %d, want 400", status)
	}
}

// TestMetricsPrometheusExposition validates the live exposition after
// every kind of API traffic: simulate hits and misses, an NDJSON trace
// post and a streamed sweep.
func TestMetricsPrometheusExposition(t *testing.T) {
	svc, ts, cl := startService(t)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := cl.Simulate(ctx, scenario(64)); err != nil {
			t.Fatal(err)
		}
	}
	_, accs := kvTrace(t)
	if _, err := cl.Trace(ctx, traceScenario(), "kv", accs); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SweepOutcomes(ctx, []sim.Scenario{scenario(96), scenario(128)}); err != nil {
		t.Fatal(err)
	}

	// The middleware counts a request after its handler returns, which
	// can land just after the client has read the streamed sweep.
	var text []byte
	for deadline := time.Now().Add(5 * time.Second); ; {
		var err error
		if text, err = cl.MetricsText(ctx); err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(text, []byte(`route="POST /v1/sweep"`)) || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n, err := promcheck.Check(text); err != nil {
		t.Fatalf("exposition invalid after %d samples: %v\n%s", n, err, text)
	}
	m := svc.Metrics()
	if m.Cache.Hits != 1 || m.Cache.Misses != 4 {
		t.Errorf("cache = %+v, want 1 hit + 4 misses (simulate, trace, 2 swept)", m.Cache)
	}
	for _, want := range []string{
		"# TYPE rd_cache_hits_total counter",
		fmt.Sprintf("\nrd_cache_hits_total %d\n", m.Cache.Hits),
		fmt.Sprintf("\nrd_cache_misses_total %d\n", m.Cache.Misses),
		`rd_http_requests_total{code="200",route="POST /v1/simulate"} 2`,
		`rd_http_requests_total{code="200",route="POST /v1/trace"} 1`,
		`rd_http_requests_total{code="200",route="POST /v1/sweep"} 1`,
		"# TYPE rd_http_request_duration_us histogram",
		`rd_stage_duration_us_bucket{stage="simulate",le="+Inf"} 4`,
		"rd_workers_configured 2",
		`rd_sim_stall_cycles_total{cause=`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// There is no JSON view: a format=json query gets the exposition too.
	for _, query := range []string{"", "?format=json"} {
		resp, err := http.Get(ts.URL + "/metrics" + query)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Errorf("GET /metrics%s content type = %q, want exposition format 0.0.4", query, ct)
		}
	}
}

func TestPProfGatedByOption(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Close(ctx)
	}()

	off := httptest.NewServer(service.NewHandler(svc))
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof served without the option")
	}

	on := httptest.NewServer(service.NewHandlerWith(svc, service.HandlerOptions{PProf: true}))
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with option on: status %d", resp.StatusCode)
	}
}

// TestServiceMetricsConsistentUnderRace submits work from many
// goroutines while a poller snapshots Metrics, asserting every snapshot
// is internally consistent: Busy stays within the configured pool, the
// queue within its capacity, Active within Retained, and counters never
// run backward. CI runs this under -race.
func TestServiceMetricsConsistentUnderRace(t *testing.T) {
	const workers = 2
	svc, err := service.New(service.Config{Workers: workers, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Close(ctx)
	}()

	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		var lastTasks, lastBatches int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := svc.Metrics()
			if m.Workers.Busy < 0 || m.Workers.Busy > workers {
				t.Errorf("busy = %d outside [0, %d]", m.Workers.Busy, workers)
				return
			}
			if m.Queue.Depth > m.Queue.Capacity {
				t.Errorf("queue depth %d > capacity %d", m.Queue.Depth, m.Queue.Capacity)
				return
			}
			if m.Jobs.Active > m.Jobs.Retained {
				t.Errorf("active jobs %d > retained %d", m.Jobs.Active, m.Jobs.Retained)
				return
			}
			if m.Workers.TasksRun < lastTasks || m.Workers.Batches < lastBatches {
				t.Errorf("counters ran backward: tasks %d -> %d, batches %d -> %d",
					lastTasks, m.Workers.TasksRun, lastBatches, m.Workers.Batches)
				return
			}
			lastTasks, lastBatches = m.Workers.TasksRun, m.Workers.Batches
		}
	}()

	const goroutines, rounds = 4, 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sc := scenario(64 << (g % 3))
				job, err := svc.SubmitOne(context.Background(), sc)
				if err != nil {
					t.Error(err)
					return
				}
				if err := job.Wait(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	pollWG.Wait()

	m := svc.Metrics()
	if want := int64(goroutines * rounds); m.Workers.TasksRun != want {
		t.Errorf("tasks run = %d, want %d", m.Workers.TasksRun, want)
	}
	if m.Workers.Busy != 0 {
		t.Errorf("busy = %d at quiescence", m.Workers.Busy)
	}
	total := m.Cache.Hits + m.Cache.Misses + m.Cache.Dedups
	if total != int64(goroutines*rounds) {
		t.Errorf("cache classified %d of %d tasks", total, goroutines*rounds)
	}
}
