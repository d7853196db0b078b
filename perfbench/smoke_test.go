package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// runJSON runs the benchmark in process and decodes its result line.
func runJSON(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run %v: exit %d\nstdout: %s\nstderr: %s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run %v: correct=%v attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func checkMetrics(t *testing.T, label string, got map[string]metric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", label, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, m.name)
			continue
		}
		if g.Unit != m.unit {
			t.Errorf("%s: metric %s unit %q, want %q", label, m.name, g.Unit, m.unit)
		}
	}
}

// tinyArgs is a short run of one workload.
func tinyArgs(t *testing.T, workload string, seed int, trace bool) []string {
	args := []string{"--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", "0.3", "--setups", "1"}
	if trace {
		args = append(args, "--trace", "1", "--probe-scale", "0.05", "--span-dir", t.TempDir())
	}
	return args
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for name := range workloads {
		checkMetrics(t, name, runJSON(t, tinyArgs(t, name, 1, false)...).Metrics, endToEnd)
		checkMetrics(t, name+" traced", runJSON(t, tinyArgs(t, name, 1, true)...).Metrics, perLayer)
	}
}

func TestTracedRunWritesSpans(t *testing.T) {
	dir := t.TempDir()
	args := []string{"--workload", "serve-rw", "--seed", "2", "--seconds", "2", "--setups", "1",
		"--trace", "1", "--probe-scale", "0.05", "--span-dir", dir}
	res := runJSON(t, args...)
	data, err := os.ReadFile(filepath.Join(dir, "serve-rw-seed2.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		if s.End < s.Start || s.Op == 0 {
			t.Fatalf("malformed span %+v", s)
		}
		names[s.Name] = true
	}
	for _, n := range []string{rootSpan, "client.Simulate", "client.Trace", "service.Handler"} {
		if !names[n] {
			t.Errorf("no %s span among %v", n, names)
		}
	}
	if got := res.Metrics["trace.spans"].Value; got != float64(len(strings.Split(strings.TrimSpace(string(data)), "\n"))) {
		t.Errorf("trace.spans = %v, file has a different count", got)
	}
}

// exactCounts are the per-layer metrics a perf-only change must leave
// identical.
var exactCounts = []string{
	"rdram.packets", "rdram.activates", "rdram.page_hit_ratio", "rdram.page_conflicts",
	"engine.useful_word_ratio", "engine.cpu_stall_cycles", "sim.cycles",
}

func TestSameSeedRepeatsExactly(t *testing.T) {
	for name, setup := range workloads {
		a, err := setup(3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := setup(3)
		if err != nil {
			t.Fatal(err)
		}
		if pa, pb := a.pctPeakMean(), b.pctPeakMean(); pa != pb {
			t.Errorf("%s: pct_peak_mean %v then %v", name, pa, pb)
		}
		a.close()
		b.close()
	}
	p1, err := runProbes(3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := runProbes(3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range exactCounts {
		if p1[n] != p2[n] {
			t.Errorf("%s: %v then %v", n, p1[n], p2[n])
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	if reflect.DeepEqual(kernelGridInputs(1), kernelGridInputs(2)) {
		t.Error("kernel-grid inputs do not depend on the seed")
	}
	a, b := traceMixInputs(1), traceMixInputs(2)
	ta, err := a[0].Workload.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := b[0].Workload.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ta, tb) {
		t.Error("trace-mix traces do not depend on the seed")
	}
	sa, err := serveInputsFor(1)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := serveInputsFor(2)
	if err != nil {
		t.Fatal(err)
	}
	if sa.seq.Int63() == sb.seq.Int63() || reflect.DeepEqual(sa.traceAccs, sb.traceAccs) {
		t.Error("serve-rw requests do not depend on the seed")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables in
// step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, c := range []struct {
		label string
		got   []struct{ Name, Unit string }
		want  []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", c.label, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", c.label, i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
}
