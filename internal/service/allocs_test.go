//go:build !race

// The race detector's sync.Pools drop items at random, so allocation
// counts are exact only without it.

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

	"rdramstream/internal/service"
	"rdramstream/internal/service/client"
)

// A warm hit through the handler allocates no more than it was measured
// to when the request body stopped going through encoding/json and a
// one-scenario job stopped building a sweep's bookkeeping (59
// allocations before; 127 before the outcome stopped being re-encoded,
// the key stopped using fmt and the metric series stopped rendering
// their labels per request).
func TestHandlerHitAllocs(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close(context.Background()) })
	h := service.NewHandler(svc)
	body, err := json.Marshal(scenario(256))
	if err != nil {
		t.Fatal(err)
	}
	if code, raw := serveOne(h, http.MethodPost, "/v1/simulate", body); code != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", code, raw)
	}
	var rec *httptest.ResponseRecorder
	allocs := testing.AllocsPerRun(50, func() {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
	})
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached": true`) {
		t.Fatalf("warm request: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	t.Logf("warm hit: %.0f allocs", allocs)
	if allocs > 36 {
		t.Errorf("a warm hit allocated %.0f times, want <= 36", allocs)
	}
}

// hitTransport answers every request with one recorded response body,
// so that a client's allocations can be counted without a server's.
type hitTransport struct{ body []byte }

func (t hitTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, ContentLength: int64(len(t.body)),
		Body: io.NopCloser(bytes.NewReader(t.body)), Request: r,
	}, nil
}

// A client.Simulate hit allocates no more than it was measured to when
// its response stopped going through encoding/json (36 allocations
// before): the client side of the round trip, against a recorded hit
// body.
func TestClientSimulateHitAllocs(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close(context.Background()) })
	h := service.NewHandler(svc)
	sc := scenario(256)
	body, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var hit []byte
	for i := 0; i < 2; i++ {
		var code int
		if code, hit = serveOne(h, http.MethodPost, "/v1/simulate", body); code != http.StatusOK {
			t.Fatalf("warm-up: status %d: %s", code, hit)
		}
	}
	cl := client.New("http://recorded")
	cl.HTTPClient = &http.Client{Transport: hitTransport{body: hit}}
	ctx := context.Background()
	var resp service.SimulateResponse
	allocs := testing.AllocsPerRun(100, func() {
		if resp, err = cl.Simulate(ctx, sc); err != nil {
			panic(err)
		}
	})
	if !resp.Cached || resp.Key == "" {
		t.Fatalf("recorded hit decoded as %+v", resp)
	}
	t.Logf("client hit: %.0f allocs", allocs)
	if allocs > 22 {
		t.Errorf("a client.Simulate hit allocated %.0f times, want <= 22", allocs)
	}
}
