package main

import (
	"bytes"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// The pattern is as deep as the shallowest name and matches every name
// level by level, as go test applies it.
func TestBenchRegexp(t *testing.T) {
	names := []string{
		"BenchmarkTelemetryOff/CopySMCCLI",
		"BenchmarkRun/long/daxpy/smc",
		"BenchmarkRun/long/daxpy/smc/verified/cli",
		"BenchmarkTraceRun/llm-kvcache/pi",
	}
	got := benchRegexp(names)
	want := `^(BenchmarkTelemetryOff|BenchmarkRun|BenchmarkTraceRun)$/^(CopySMCCLI|long|llm-kvcache)$`
	if got != want {
		t.Fatalf("benchRegexp = %q, want %q", got, want)
	}
	levels := strings.Split(got, "/")
	for _, n := range names {
		for l, elem := range strings.Split(n, "/")[:len(levels)] {
			if !regexp.MustCompile(levels[l]).MatchString(elem) {
				t.Errorf("%s: level %d %q does not match %q", n, l, levels[l], elem)
			}
		}
	}
	if got := benchRegexp([]string{"BenchmarkKey"}); got != "^(BenchmarkKey)$" {
		t.Errorf("one top-level name: %q", got)
	}
}

// parse keeps each benchmark's fastest ns/op and fewest allocs/op over
// the counts, custom metrics between them, and drops the -GOMAXPROCS
// suffix.
func TestParse(t *testing.T) {
	suffix := ""
	if p := runtime.GOMAXPROCS(0); p > 1 {
		suffix = "-" + strconv.Itoa(p)
	}
	out := bytes.NewBufferString(`goos: linux
pkg: rdramstream/internal/workload
BenchmarkReplayTrace/KVCache/Reordered/PI` + suffix + `   10   467228 ns/op   152.1 ns/txn   3136 B/op   9 allocs/op
BenchmarkReplayTrace/KVCache/Reordered/PI` + suffix + `   10   445325 ns/op   145.0 ns/txn   3136 B/op   8 allocs/op
BenchmarkDeviceOpenPageRead` + suffix + `   100000   37.5 ns/op   2 B/op   0 allocs/op
--- FAIL: BenchmarkBroken
PASS
`)
	got := parse(out)
	if r := got["BenchmarkReplayTrace/KVCache/Reordered/PI"]; r != (result{445325, 8}) {
		t.Errorf("replay row = %+v", r)
	}
	if r := got["BenchmarkDeviceOpenPageRead"]; r != (result{37.5, 0}) {
		t.Errorf("device row = %+v", r)
	}
	if len(got) != 2 {
		t.Errorf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
}
