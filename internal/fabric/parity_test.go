package fabric_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/fabric"
	"rdramstream/internal/obs"
	"rdramstream/internal/service"
	"rdramstream/internal/service/client"
	"rdramstream/internal/sim"
	"rdramstream/internal/stream"
)

// post sends one JSON body, with a client request ID when id is set, and
// returns the response with its body read.
func post(t *testing.T, url, path string, v any, id string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(mustJSON(t, v)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// requestTrace polls GET /v1/requests/{id} until the trace is finished:
// the middleware finishes it after the handler returns, which can land
// just after the client has read the body.
func requestTrace(t *testing.T, url, id string) obs.TraceRecord {
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

func metricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// unsimulable validates but fails to simulate: its streams do not fit
// the device.
func unsimulable() sim.Scenario {
	return sim.Scenario{
		KernelName: "copy", N: 1 << 24, Scheme: addrmap.PI, Mode: sim.SMC,
		FIFODepth: 32, Placement: stream.Staggered,
	}
}

// TestCoordinatorParity holds a coordinator to the promise that it is a
// superset of a plain rdserved: its sweep and simulate requests are
// traced under the client's request ID and counted in the HTTP metrics,
// the job ID a sweep reports is queryable, and a scenario that fails to
// simulate is a 422, as on a single node.
func TestCoordinatorParity(t *testing.T) {
	f := newFleet(t, 2, nil, fabric.Config{})
	ts := httptest.NewServer(fabric.Handler(f.co, service.NewHandler(f.co.LocalService())))
	defer ts.Close()

	scs := mixedSweep(6)
	resp, raw := post(t, ts.URL, "/v1/sweep", service.SweepRequest{Scenarios: scs}, "parity-sweep")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "parity-sweep" {
		t.Errorf("sweep echoed X-Request-ID %q, want parity-sweep", got)
	}
	var summary service.SweepLine
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var l service.SweepLine
		if err := dec.Decode(&l); err != nil {
			t.Fatal(err)
		}
		if l.Done {
			summary = l
		}
	}
	if summary.Total != len(scs) {
		t.Fatalf("summary = %+v, want total %d", summary, len(scs))
	}
	if rec := requestTrace(t, ts.URL, "parity-sweep"); rec.Status != http.StatusOK || rec.Route != "POST /v1/sweep" {
		t.Errorf("sweep trace: status %d route %q", rec.Status, rec.Route)
	}

	st, err := client.New(ts.URL).Job(context.Background(), summary.JobID)
	if err != nil {
		t.Fatalf("GET /v1/jobs/%s: %v", summary.JobID, err)
	}
	if st.ID != summary.JobID || st.State != service.StateDone || st.Total != summary.Total ||
		st.Completed != summary.Total || st.CacheHits != summary.CacheHits || st.Failed != summary.Failed {
		t.Errorf("job %+v disagrees with summary %+v", st, summary)
	}

	resp, raw = post(t, ts.URL, "/v1/simulate", scenario(96), "parity-simulate")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "parity-simulate" {
		t.Errorf("simulate echoed X-Request-ID %q, want parity-simulate", got)
	}
	if rec := requestTrace(t, ts.URL, "parity-simulate"); rec.Status != http.StatusOK || rec.Route != "POST /v1/simulate" {
		t.Errorf("simulate trace: status %d route %q", rec.Status, rec.Route)
	}

	if resp, raw := post(t, ts.URL, "/v1/simulate", unsimulable(), ""); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("a scenario that fails to simulate: status %d, want 422: %s", resp.StatusCode, raw)
	}

	text := metricsText(t, ts.URL)
	for _, series := range []string{
		`rd_http_requests_total{code="200",route="POST /v1/sweep"} 1`,
		`rd_http_requests_total{code="200",route="POST /v1/simulate"} 1`,
		`rd_http_requests_total{code="422",route="POST /v1/simulate"} 1`,
	} {
		if !strings.Contains(text, series+"\n") {
			t.Errorf("metrics exposition lacks %s", series)
		}
	}
}

// jobIDValue matches the job_id field of a /v1/simulate body.
var jobIDValue = regexp.MustCompile(`"job_id": "[^"]*"`)

// TestCoordinatorRefusalsLeaveNoJob checks that a sweep the coordinator
// refuses, shed (429) or invalid (400), registers no job in its service
// and is counted like any other request, and that its /v1/simulate body
// is a plain server's, byte for byte, apart from the job ID.
func TestCoordinatorRefusalsLeaveNoJob(t *testing.T) {
	plans := []fabric.ChaosPlan{{StallAfterRows: 1, MisbehaveSweeps: 1}}
	f := newFleet(t, 1, plans, fabric.Config{MaxInFlightSweeps: 1, MaxScenarioRetries: 1000})
	ts := httptest.NewServer(fabric.Handler(f.co, service.NewHandler(f.co.LocalService())))
	defer ts.Close()
	jobs := func() service.JobMetrics { return f.co.LocalService().Metrics().Jobs }

	invalid := mixedSweep(3)
	invalid[1].KernelName = "no-such-kernel"
	before := jobs()
	if resp, raw := post(t, ts.URL, "/v1/sweep", service.SweepRequest{Scenarios: invalid}, ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid sweep: status %d, want 400: %s", resp.StatusCode, raw)
	}
	if after := jobs(); after.Retained != before.Retained || after.Active != before.Active {
		t.Errorf("an invalid sweep changed the jobs: %+v -> %+v", before, after)
	}

	// A stalled sweep holds the only in-flight slot, so the next is shed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sw, err := f.co.StartSweep(ctx, mixedSweep(4))
	if err != nil {
		t.Fatal(err)
	}
	before = jobs()
	resp, raw := post(t, ts.URL, "/v1/sweep", service.SweepRequest{Scenarios: mixedSweep(2)}, "")
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shed sweep: status %d, Retry-After %q: %s", resp.StatusCode, resp.Header.Get("Retry-After"), raw)
	}
	if after := jobs(); after.Retained != before.Retained || after.Active != before.Active {
		t.Errorf("a shed sweep changed the jobs: %+v -> %+v", before, after)
	}
	cancel()
	<-sw.Done()

	text := metricsText(t, ts.URL)
	for _, series := range []string{
		`rd_http_requests_total{code="400",route="POST /v1/sweep"} 1`,
		`rd_http_requests_total{code="429",route="POST /v1/sweep"} 1`,
	} {
		if !strings.Contains(text, series+"\n") {
			t.Errorf("metrics exposition lacks %s", series)
		}
	}

	plain := httptest.NewServer(service.NewHandler(newService(t)))
	defer plain.Close()
	sc := scenario(200) // in no sweep above, so neither side has it cached
	resp, fromFabric := post(t, ts.URL, "/v1/simulate", sc, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator simulate: status %d: %s", resp.StatusCode, fromFabric)
	}
	resp, fromPlain := post(t, plain.URL, "/v1/simulate", sc, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain simulate: status %d: %s", resp.StatusCode, fromPlain)
	}
	blank := []byte(`"job_id": ""`)
	if a, b := jobIDValue.ReplaceAll(fromFabric, blank), jobIDValue.ReplaceAll(fromPlain, blank); !bytes.Equal(a, b) {
		t.Errorf("coordinator and plain /v1/simulate bodies differ beyond job_id\ncoordinator: %.300s\nplain:       %.300s", a, b)
	}
}
