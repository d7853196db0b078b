//go:build !race

// The race detector's sync.Pools drop items at random, so allocation
// counts are exact only without it.

package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rdramstream/internal/service"
)

// A warm hit through the handler allocates no more than it was measured
// to when the outcome stopped being re-encoded, the key stopped using
// fmt and the metric series stopped rendering their labels per request
// (127 allocations before).
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
	if allocs > 59 {
		t.Errorf("a warm hit allocated %.0f times, want <= 59", allocs)
	}
}
