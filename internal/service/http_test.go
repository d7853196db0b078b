package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/service"
	"rdramstream/internal/service/client"
	"rdramstream/internal/sim"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
)

func scenario(n int) sim.Scenario {
	return sim.Scenario{
		KernelName: "daxpy", N: n, Scheme: addrmap.PI, Mode: sim.SMC,
		FIFODepth: 32, Placement: stream.Staggered,
	}
}

func startServer(t *testing.T) (*httptest.Server, *client.Client) {
	t.Helper()
	_, ts, cl := startService(t)
	return ts, cl
}

// startService is startServer that also hands back the service, for
// tests that compare the wire against its in-process Metrics snapshot.
func startService(t *testing.T) (*service.Service, *httptest.Server, *client.Client) {
	t.Helper()
	svc, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Close(ctx)
	})
	return svc, ts, client.New(ts.URL)
}

// TestSimulateEndpointByteIdentical is the acceptance criterion: the
// /v1/simulate outcome must be byte-identical JSON to a direct sim.Run of
// the same scenario, the repeat must be a cache hit, and the two bodies
// must agree.
func TestSimulateEndpointByteIdentical(t *testing.T) {
	ts, _ := startServer(t)
	sc := scenario(256)
	direct, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}

	post := func() (service.SimulateResponse, []byte) {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		var out service.SimulateResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
		return out, raw
	}

	first, _ := post()
	second, _ := post()
	if first.Cached {
		t.Error("first request reported a cache hit")
	}
	if !second.Cached {
		t.Error("second identical request was not a cache hit")
	}
	for name, got := range map[string]sim.Outcome{"miss": first.Outcome, "hit": second.Outcome} {
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, directJSON) {
			t.Errorf("%s outcome not byte-identical to direct sim.Run:\n  got  %s\n  want %s", name, gotJSON, directJSON)
		}
	}
	if first.Key == "" || first.Key != second.Key {
		t.Errorf("cache keys differ between identical requests: %q vs %q", first.Key, second.Key)
	}
}

func TestSweepEndpointStreamsInOrder(t *testing.T) {
	svc, _, cl := startService(t)
	var scs []sim.Scenario
	lengths := []int{64, 128, 256, 64}
	for _, n := range lengths {
		scs = append(scs, scenario(n))
	}

	var lines []service.SweepLine
	summary, err := cl.Sweep(context.Background(), scs, func(l service.SweepLine) error {
		lines = append(lines, l)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(scs) {
		t.Fatalf("streamed %d result lines for %d scenarios", len(lines), len(scs))
	}
	for i, l := range lines {
		if l.Index != i {
			t.Errorf("line %d carries index %d — stream out of input order", i, l.Index)
		}
		if l.Error != "" || l.Outcome == nil {
			t.Errorf("line %d: error=%q outcome=%v", i, l.Error, l.Outcome)
			continue
		}
		direct, err := sim.Run(scs[i])
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(direct)
		got, _ := json.Marshal(*l.Outcome)
		if !bytes.Equal(got, want) {
			t.Errorf("scenario %d outcome differs from direct run", i)
		}
	}
	if !summary.Done || summary.Total != len(scs) || summary.Failed != 0 {
		t.Errorf("summary = %+v", summary)
	}
	// The duplicate ran once: it is a cache hit or, when the two workers
	// reach both copies at the same time, a deduped follower of its twin.
	if m := svc.Metrics().Cache; m.Misses != 3 || m.Hits+m.Dedups != 1 {
		t.Errorf("cache = %+v, want 3 misses and the duplicate a hit or a dedup", m)
	}
	if summary.JobID == "" {
		t.Fatal("summary carries no job id")
	}

	// The finished job stays queryable.
	st, err := cl.Job(context.Background(), summary.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone || st.Completed != len(scs) {
		t.Errorf("job status = %+v", st)
	}
}

func TestSweepOutcomesMatchesSimRunAll(t *testing.T) {
	_, cl := startServer(t)
	var scs []sim.Scenario
	for _, n := range []int{64, 128, 256} {
		scs = append(scs, scenario(n))
	}
	local, err := sim.RunAll(scs, 1)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := cl.SweepOutcomes(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(local)
	got, _ := json.Marshal(remote)
	if !bytes.Equal(got, want) {
		t.Errorf("remote sweep differs from local RunAll:\n  got  %s\n  want %s", got, want)
	}
}

func TestBadRequests(t *testing.T) {
	ts, cl := startServer(t)
	cases := map[string]struct {
		path, body string
		status     int
	}{
		"malformed json":  {"/v1/simulate", "{", http.StatusBadRequest},
		"unknown field":   {"/v1/simulate", `{"KernelName":"daxpy","Typo":1}`, http.StatusBadRequest},
		"invalid kernel":  {"/v1/simulate", `{"KernelName":"nope","N":64}`, http.StatusBadRequest},
		"empty sweep":     {"/v1/sweep", `{"scenarios":[]}`, http.StatusBadRequest},
		"invalid in list": {"/v1/sweep", `{"scenarios":[{"KernelName":"daxpy","N":-1}]}`, http.StatusBadRequest},
	}
	for name, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d (body %s), want %d", name, resp.StatusCode, body, tc.status)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %s is not an {error: ...} object", name, body)
		}
	}

	if _, err := cl.Job(context.Background(), "job-999999"); err == nil {
		t.Error("unknown job id did not error")
	}
}

func TestHealthAndMetrics(t *testing.T) {
	svc, _, cl := startService(t)
	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || !strings.Contains(h.Version, "rdramstream") {
		t.Errorf("health = %+v", h)
	}

	if _, err := cl.Simulate(context.Background(), scenario(128)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Simulate(context.Background(), scenario(128)); err != nil {
		t.Fatal(err)
	}
	m := svc.Metrics()
	if m.Cache.Misses != 1 || m.Cache.Hits != 1 {
		t.Errorf("cache stats = %+v, want 1 miss + 1 hit", m.Cache)
	}
	if m.Queue.Capacity == 0 || m.Workers.Configured == 0 {
		t.Errorf("metrics missing queue/worker config: %+v", m)
	}
	if m.Stalls == ([telemetry.NumStallCauses]int64{}) {
		t.Error("metrics carry no stall aggregates after an executed run")
	}
}
