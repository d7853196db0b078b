package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdramstream/internal/obs/promcheck"
)

var updateGolden = flag.Bool("update", false, "rewrite the Prometheus exposition golden file")

// goldenRegistry builds a registry with fixed contents covering every
// family type, label escaping, multi-series families, and an empty
// histogram — the rendering surface pinned by the golden file.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("rd_http_requests_total", "HTTP requests by route and status code.",
		L("route", "POST /v1/simulate"), L("code", "200")).Add(41)
	r.Counter("rd_http_requests_total", "HTTP requests by route and status code.",
		L("route", "POST /v1/simulate"), L("code", "200")).Inc()
	r.Counter("rd_http_requests_total", "HTTP requests by route and status code.",
		L("route", "POST /v1/sweep"), L("code", "503")).Add(3)
	r.SetGauge("rd_queue_depth", "Scenarios queued but not yet dispatched.", 7)
	r.SetGauge("rd_worker_utilization", "Busy fraction of the worker pool.", 0.625)
	r.SetCounter("rd_cache_hits_total", "Result-cache hits.", 1234)
	// A label value exercising every escape: backslash, quote, newline.
	r.Counter("rd_escape_test_total", `Help with backslash \ kept verbatim.`,
		L("path", "a\\b\"c\nd")).Inc()
	h := r.Histogram("rd_stage_duration_us", "Stage latency in microseconds.",
		[]int64{100, 1000, 10000}, L("stage", "simulate"))
	for _, v := range []int64{50, 150, 150, 5000, 20000} {
		h.Observe(v)
	}
	// Registered but never observed: renders all-zero buckets.
	r.Histogram("rd_stage_duration_us", "Stage latency in microseconds.",
		[]int64{100, 1000, 10000}, L("stage", "queued"))
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "golden_metrics.txt")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	// The golden output must itself be a valid exposition.
	if _, err := promcheck.Check(buf.Bytes()); err != nil {
		t.Errorf("golden exposition does not validate: %v", err)
	}
}

func TestHistogramRenderCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_us", "help", []int64{10, 20, 30})
	for _, v := range []int64{5, 15, 15, 25, 100, 200} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lat_us_bucket{le="10"} 1`,
		`lat_us_bucket{le="20"} 3`,
		`lat_us_bucket{le="30"} 4`,
		`lat_us_bucket{le="+Inf"} 6`,
		`lat_us_sum 360`,
		`lat_us_count 6`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if _, err := promcheck.Check(buf.Bytes()); err != nil {
		t.Errorf("rendered histogram does not validate: %v", err)
	}
}

func TestRegistryIdempotentAndSorted(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("zz_total", "z", L("k", "v"))
	b := r.Counter("zz_total", "z", L("k", "v"))
	if a != b {
		t.Error("re-registration returned a different handle")
	}
	r.Counter("aa_total", "a").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Index(out, "aa_total") > strings.Index(out, "zz_total") {
		t.Error("families not sorted by name")
	}
	// Labels render sorted by key regardless of registration order.
	r2 := NewRegistry()
	r2.Counter("m_total", "m", L("z", "1"), L("a", "2")).Inc()
	var buf2 bytes.Buffer
	if err := r2.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), `m_total{a="2",z="1"} 1`) {
		t.Errorf("labels not sorted by key:\n%s", buf2.String())
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a histogram did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x_total", "x")
	r.Histogram("x_total", "x", []int64{1})
}

// Looking up an existing series renders nothing and allocates nothing,
// so the per-request counter and histogram calls cost a map lookup.
func TestRegistryLookupAllocs(t *testing.T) {
	r := NewRegistry()
	bounds := DefaultLatencyBoundsUS()
	route := "POST /v1/simulate"
	r.Counter("rd_http_requests_total", "h", L("route", route), L("code", "200"))
	r.Histogram("rd_stage_duration_us", "h", bounds, L("stage", "cache"))
	if r.Counter("rd_http_requests_total", "h", L("code", "200"), L("route", route)) !=
		r.Counter("rd_http_requests_total", "h", L("route", route), L("code", "200")) {
		t.Error("one label set in two orders named two series")
	}
	for name, f := range map[string]func(){
		"Counter": func() {
			r.Counter("rd_http_requests_total", "h", L("code", "200"), L("route", route)).Inc()
		},
		"Histogram": func() {
			r.Histogram("rd_stage_duration_us", "h", bounds, L("stage", "cache")).Observe(120)
		},
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s on an existing series allocated %.0f times, want 0", name, allocs)
		}
	}
}

// More labels than a series key holds is a programming error.
func TestRegistryTooManyLabelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("registering five labels did not panic")
		}
	}()
	NewRegistry().Counter("x_total", "x", L("a", "1"), L("b", "2"), L("c", "3"), L("d", "4"), L("e", "5"))
}
