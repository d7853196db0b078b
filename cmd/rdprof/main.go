// Command rdprof is the core-speed gate. Each row of
// BENCH_core_speed.json names the Go benchmark that times it (package,
// full name, -benchtime). Run from the module root,
//
//	rdprof -check BENCH_core_speed.json
//	rdprof -record BENCH_core_speed.json
//
// runs one `go test -run '^$' -bench … -benchmem -count N` per package
// and benchtime and reads each row's minimum ns/op and allocs/op over
// the counts. -check fails on a gated row over 2x its committed
// afterNsPerOp, on any row above its committed afterAllocsPerOp, and on
// a row whose benchmark did not run; -record rewrites the after fields
// and keeps the rest of the file. One scenario's telemetry is
// `rdsim -profile DIR`.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"

	"rdramstream/internal/version"
)

// count is how many times each benchmark runs; a row reads the fastest.
// Record and check use the same count, and each row's own benchtime.
const count = 30

// maxRatio is the ns/op growth a gated row may show: min-of-N timings on
// a shared runner move by tens of percent, a real regression by more.
const maxRatio = 2

func main() {
	check := flag.String("check", "", "run every row's benchmark and fail on a >2x ns/op regression of a gated row, on allocs/op above the committed count, or on a row whose benchmark did not run")
	record := flag.String("record", "", "run every row's benchmark and rewrite the rows' after fields in this file")
	showVersion := flag.Bool("version", false, "print the version stamp and exit")
	flag.Parse()

	var err error
	switch {
	case *showVersion:
		fmt.Println(version.Stamp())
	case *check != "":
		err = run(*check, false)
	case *record != "":
		err = run(*record, true)
	default:
		fmt.Fprintln(os.Stderr, "rdprof: want -check FILE or -record FILE (one scenario's telemetry is rdsim -profile DIR)")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rdprof: %v\n", err)
		os.Exit(1)
	}
}

// row is one pinned benchmark in BENCH_core_speed.json.
type row struct {
	Name              string  `json:"name"`
	Scenario          string  `json:"scenario"`
	Package           string  `json:"package"`
	Benchmark         string  `json:"benchmark"`
	Benchtime         string  `json:"benchtime"`
	BaselineCommit    string  `json:"baselineCommit"`
	BeforeNsPerOp     float64 `json:"beforeNsPerOp"`
	BeforeAllocsPerOp int64   `json:"beforeAllocsPerOp"`
	AfterNsPerOp      float64 `json:"afterNsPerOp"`
	AfterAllocsPerOp  int64   `json:"afterAllocsPerOp"`
	Speedup           float64 `json:"speedup"`
	RegressionGate    bool    `json:"regressionGate"`
}

// file is the BENCH_core_speed.json schema. Count, GoVersion and CPUs
// are the provenance of the after fields; record mode sets them.
type file struct {
	Count     int    `json:"count"`
	GoVersion string `json:"goVersion"`
	CPUs      int    `json:"cpus"`
	Rows      []row  `json:"scenarios"`
	Note      string `json:"note"`
}

// result is one benchmark's fastest reading over the counts.
type result struct {
	ns     float64
	allocs int64
}

// run measures every row of the file at path and checks it, or records
// it when record is set.
func run(path string, record bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f file
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	got, err := measure(f.Rows)
	if err != nil {
		return err
	}
	failed, worst := false, 0.0
	for i := range f.Rows {
		r := &f.Rows[i]
		m, ok := got[r.Package+" "+r.Benchmark]
		if !ok {
			fmt.Printf("%-34s %s %s did not run [MISSING]\n", r.Name, r.Package, r.Benchmark)
			failed = true
			continue
		}
		if record {
			r.AfterNsPerOp, r.AfterAllocsPerOp = m.ns, m.allocs
			r.Speedup = r.BeforeNsPerOp / m.ns
			fmt.Printf("%-34s before %12.0f ns %5d allocs, after %12.0f ns %5d allocs (%.2fx)\n",
				r.Name, r.BeforeNsPerOp, r.BeforeAllocsPerOp, m.ns, m.allocs, r.Speedup)
			continue
		}
		ratio := m.ns / r.AfterNsPerOp
		status := "info"
		if r.RegressionGate {
			status, worst = "ok", max(worst, ratio)
			if ratio > maxRatio {
				status, failed = "REGRESSION", true
			}
		}
		alStatus := "ok"
		if m.allocs > r.AfterAllocsPerOp {
			alStatus, failed = "ALLOC REGRESSION", true
		}
		fmt.Printf("%-34s committed %12.0f ns, now %12.0f ns (%.2fx) [%s]; allocs committed %d, now %d [%s]\n",
			r.Name, r.AfterNsPerOp, m.ns, ratio, status, r.AfterAllocsPerOp, m.allocs, alStatus)
	}
	if !record {
		fmt.Printf("worst gated ratio %.2fx (limit %dx)\n", worst, maxRatio)
	}
	if failed {
		return fmt.Errorf("a row regressed (>%dx ns/op on a gated row, allocs/op above committed) or did not run vs %s", maxRatio, path)
	}
	if !record {
		return nil
	}
	f.Count, f.GoVersion, f.CPUs = count, runtime.Version(), runtime.NumCPU()
	out, err := json.MarshalIndent(f, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(out, '\n'), 0o644)
	}
	return err
}

// measure runs the rows' benchmarks, one go test per package and
// benchtime, and returns each benchmark's fastest ns/op and fewest
// allocs/op over the counts, keyed by package and full name.
func measure(rows []row) (map[string]result, error) {
	type group struct{ pkg, benchtime string }
	var order []group
	names := make(map[group][]string)
	for _, r := range rows {
		g := group{r.Package, r.Benchtime}
		if names[g] == nil {
			order = append(order, g)
		}
		names[g] = append(names[g], r.Benchmark)
	}
	got := make(map[string]result)
	for _, g := range order {
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", benchRegexp(names[g]),
			"-benchmem", "-benchtime", g.benchtime, "-count", strconv.Itoa(count), g.pkg)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			os.Stderr.Write(stdout.Bytes())
			return nil, fmt.Errorf("go test %s: %v", g.pkg, err)
		}
		for name, res := range parse(&stdout) {
			got[g.pkg+" "+name] = res
		}
	}
	return got, nil
}

// benchRegexp is a -bench pattern that runs every named benchmark. go
// test splits a pattern at its slashes and matches each level of a
// benchmark's name against its own element; a name with fewer levels
// than the pattern only runs its children, so the pattern is as deep as
// the shallowest name, and each level alternates the names' elements.
func benchRegexp(names []string) string {
	split := make([][]string, len(names))
	depth := 0
	for i, n := range names {
		split[i] = strings.Split(n, "/")
		if depth == 0 || len(split[i]) < depth {
			depth = len(split[i])
		}
	}
	levels := make([]string, depth)
	for l := range levels {
		var alts []string
		seen := make(map[string]bool)
		for _, s := range split {
			if !seen[s[l]] {
				seen[s[l]] = true
				alts = append(alts, regexp.QuoteMeta(s[l]))
			}
		}
		levels[l] = "^(" + strings.Join(alts, "|") + ")$"
	}
	return strings.Join(levels, "/")
}

// parse reads go test -benchmem output and returns each benchmark's
// fastest ns/op and fewest allocs/op, its name without the -GOMAXPROCS
// suffix go test appends.
func parse(out *bytes.Buffer) map[string]result {
	suffix := ""
	if p := runtime.GOMAXPROCS(0); p > 1 {
		suffix = "-" + strconv.Itoa(p)
	}
	got := make(map[string]result)
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		// Name, iterations, ns/op, any custom metrics, B/op, allocs/op.
		f := strings.Fields(sc.Text())
		if len(f) < 8 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" || f[len(f)-1] != "allocs/op" {
			continue
		}
		ns, err := strconv.ParseFloat(f[2], 64)
		allocs, err2 := strconv.ParseInt(f[len(f)-2], 10, 64)
		if err != nil || err2 != nil {
			continue
		}
		name := strings.TrimSuffix(f[0], suffix)
		if prev, ok := got[name]; ok {
			ns, allocs = min(ns, prev.ns), min(allocs, prev.allocs)
		}
		got[name] = result{ns, allocs}
	}
	return got
}
