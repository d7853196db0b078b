package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// rdsim runs the command with args and returns its exit status, stdout
// and stderr.
func rdsim(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// The golden files hold rdsim's recorded output. The -timeline cases'
// timelines and bus statistics must not change by a byte; the -json case
// pins the shape CI's smokes compare against the server.
func TestGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"daxpy_natural_cli", []string{"-kernel", "daxpy", "-n", "32", "-mode", "natural", "-scheme", "cli", "-fifo", "16", "-timeline", "2"}},
		{"copy_smc_pi", []string{"-kernel", "copy", "-n", "64", "-mode", "smc", "-scheme", "pi", "-fifo", "16", "-timeline", "4"}},
		{"hotrow_smc_pi", []string{"-trace-gen", "hot-row:n=256", "-scheme", "pi", "-mode", "smc", "-fifo", "16", "-timeline", "2"}},
		{"file_natural_pi", []string{"-trace-gen", "@testdata/chase.ndjson", "-scheme", "pi", "-mode", "natural", "-fifo", "16", "-timeline", "2"}},
		{"daxpy_smc_pi_json", []string{"-kernel", "daxpy", "-n", "1024", "-scheme", "pi", "-mode", "smc", "-fifo", "128", "-placement", "staggered", "-json"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := rdsim(c.args...)
			if code != 0 || stderr != "" {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr)
			}
			if stdout != string(want) {
				t.Errorf("output differs from testdata/%s.golden:\n%s", c.golden, stdout)
			}
		})
	}
}

// An unknown mode fails before anything is written: no output, and no
// -trace-out file.
func TestUnknownMode(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "t.ndjson")
	for _, args := range [][]string{
		{"-kernel", "daxpy", "-mode", "bogus"},
		{"-trace-gen", "hot-row:n=64", "-mode", "bogus", "-trace-out", traceOut},
	} {
		code, stdout, stderr := rdsim(args...)
		if want := "rdsim: unknown mode \"bogus\" (want smc or natural)\n"; code != 1 || stderr != want {
			t.Errorf("rdsim %q: exit %d, stderr %q; want 1, %q", args, code, stderr, want)
		}
		if stdout != "" {
			t.Errorf("rdsim %q wrote output before failing:\n%s", args, stdout)
		}
	}
	if _, err := os.Stat(traceOut); !os.IsNotExist(err) {
		t.Errorf("-trace-out written before the mode error (stat: %v)", err)
	}
}

// Flags that would otherwise be silently ignored are rejected.
func TestRejectsIgnoredFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-devices", "0"}, "rdsim: -devices 0: want at least 1\n"},
		{[]string{"-trace-out", "t.ndjson"}, "rdsim: -trace-out needs -trace-gen\n"},
		{[]string{"-outstanding", "2"}, "rdsim: -outstanding needs -trace-gen\n"},
		{[]string{"-timeline", "2", "-json"}, "rdsim: -timeline draws text and cannot be combined with -json\n"},
	} {
		code, stdout, stderr := rdsim(c.args...)
		if code != 1 || stderr != c.want || stdout != "" {
			t.Errorf("rdsim %q: exit %d, stdout %q, stderr %q; want 1, \"\", %q", c.args, code, stdout, stderr, c.want)
		}
	}
}

// -trace-out must write the materialized trace that testdata/chase.ndjson
// (replayed by the file_natural_pi golden) was recorded from.
func TestTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chase.ndjson")
	if code, _, stderr := rdsim("-trace-gen", "chase:n=48,write=0.3", "-trace-out", path); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "chase.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-trace-out wrote:\n%s\nwant testdata/chase.ndjson:\n%s", got, want)
	}
}

// -profile writes the four-file bundle, and its stall attribution
// charges every idle DATA-bus cycle to exactly one cause.
func TestProfileBundle(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := rdsim("-kernel", "daxpy", "-n", "256", "-scheme", "pi", "-fifo", "64", "-profile", dir, "-timeline", "8")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, name := range []string{"metrics.json", "timeseries.csv", "events.jsonl", "trace.json"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v", name, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Cycles, DataBusBusy, IdleCycles int64
		Stalls                          map[string]int64
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var stalls int64
	for _, v := range m.Stalls {
		stalls += v
	}
	if m.IdleCycles == 0 || stalls != m.IdleCycles || m.IdleCycles != m.Cycles-m.DataBusBusy {
		t.Errorf("sum(stalls)=%d idleCycles=%d cycles-dataBusBusy=%d; want all equal and non-zero", stalls, m.IdleCycles, m.Cycles-m.DataBusBusy)
	}
}

// A run that fails after profiling started still writes both profiles.
func TestFailedRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if code, _, _ := rdsim("-scheme", "zzz", "-cpuprofile", cpu, "-memprofile", mem); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written (%v)", filepath.Base(p), err)
		}
	}
}

// profileCases are the runs whose whole -profile bundle is pinned under
// testdata/profile/<name>/: an SMC kernel run under PI, a natural-order
// kernel run under CLI, and a reordered generated-trace replay.
var profileCases = []struct {
	name string
	args []string
}{
	{"daxpy_smc_pi", []string{"-kernel", "daxpy", "-n", "64", "-mode", "smc", "-scheme", "pi", "-fifo", "16", "-window", "64"}},
	{"daxpy_natural_cli", []string{"-kernel", "daxpy", "-n", "64", "-mode", "natural", "-scheme", "cli", "-window", "64"}},
	{"hotrow_smc_pi", []string{"-trace-gen", "hot-row:n=96", "-mode", "smc", "-scheme", "pi", "-fifo", "16", "-window", "64"}},
}

// TestProfileGolden pins every file of the -profile bundle byte for byte:
// the report, the per-window series, the captured events and the Chrome
// trace. Regenerate a case with
//
//	go run ./cmd/rdsim <args> -profile cmd/rdsim/testdata/profile/<name>
func TestProfileGolden(t *testing.T) {
	for _, c := range profileCases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			code, _, stderr := rdsim(append(c.args, "-profile", dir)...)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr)
			}
			for _, name := range []string{"metrics.json", "timeseries.csv", "events.jsonl", "trace.json"} {
				want, err := os.ReadFile(filepath.Join("testdata", "profile", c.name, name))
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs from testdata/profile/%s/%s", name, c.name, name)
				}
			}
		})
	}
}
