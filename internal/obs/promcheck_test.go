package obs

// The exposition checker lives in obs/promcheck, which only tests
// import; its tests stay here, beside the registry whose output it
// checks.

import (
	"strings"
	"testing"

	"rdramstream/internal/obs/promcheck"
)

func TestCheckExpositionValid(t *testing.T) {
	src := strings.Join([]string{
		`# HELP rd_http_requests_total HTTP requests.`,
		`# TYPE rd_http_requests_total counter`,
		`rd_http_requests_total{code="200",route="POST /v1/simulate"} 42`,
		`rd_http_requests_total{code="503",route="POST /v1/sweep"} 3`,
		`# HELP rd_queue_depth Queued scenarios.`,
		`# TYPE rd_queue_depth gauge`,
		`rd_queue_depth 7`,
		`# HELP lat_us Latency.`,
		`# TYPE lat_us histogram`,
		`lat_us_bucket{le="10"} 1`,
		`lat_us_bucket{le="20"} 3`,
		`lat_us_bucket{le="+Inf"} 6`,
		`lat_us_sum 360`,
		`lat_us_count 6`,
		`escaped_total{v="a\\b\"c\nd"} 1`,
		`weird_value 1e+06`,
		``,
	}, "\n")
	n, err := promcheck.Check([]byte(src))
	if err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	if n != 10 {
		t.Errorf("sample count = %d, want 10", n)
	}
}

func TestCheckExpositionViolations(t *testing.T) {
	cases := map[string]struct {
		src, wantErr string
	}{
		"non-cumulative buckets": {
			src: "# TYPE h histogram\n" +
				"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
			wantErr: "not cumulative",
		},
		"missing +Inf bucket": {
			src: "# TYPE h histogram\n" +
				"h_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
			wantErr: "no +Inf bucket",
		},
		"+Inf disagrees with count": {
			src: "# TYPE h histogram\n" +
				"h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 6\n",
			wantErr: "!= _count",
		},
		"missing sum": {
			src: "# TYPE h histogram\n" +
				"h_bucket{le=\"+Inf\"} 5\nh_count 5\n",
			wantErr: "missing _sum",
		},
		"duplicate series": {
			src:     "a_total 1\na_total 2\n",
			wantErr: "duplicate series",
		},
		"duplicate TYPE": {
			src:     "# TYPE a counter\n# TYPE a gauge\n",
			wantErr: "duplicate TYPE",
		},
		"TYPE after samples": {
			src:     "a_total 1\n# TYPE a_total counter\n",
			wantErr: "after its samples",
		},
		"bad metric name": {
			src:     "1bad 2\n",
			wantErr: "invalid metric name",
		},
		"bad label name": {
			src:     `m{1x="y"} 2` + "\n",
			wantErr: "invalid label name",
		},
		"unquoted label value": {
			src:     `m{x=y} 2` + "\n",
			wantErr: "not quoted",
		},
		"unterminated label value": {
			src:     `m{x="y} 2` + "\n",
			wantErr: "unterminated",
		},
		"bad escape": {
			src:     `m{x="a\tb"} 2` + "\n",
			wantErr: "bad escape",
		},
		"no value": {
			src:     "lonely_metric\n",
			wantErr: "no value",
		},
		"unparseable value": {
			src:     "m nope\n",
			wantErr: "unparseable value",
		},
		"unknown type": {
			src:     "# TYPE a sparkline\n",
			wantErr: "unknown metric type",
		},
		"raw sample on histogram family": {
			src:     "# TYPE h histogram\nh 5\n",
			wantErr: "raw sample",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := promcheck.Check([]byte(tc.src))
			if err == nil {
				t.Fatalf("invalid exposition accepted:\n%s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
