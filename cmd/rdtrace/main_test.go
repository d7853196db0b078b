package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The golden files hold rdtrace's recorded output; the timelines,
// statistics and protocol verdicts must not change by a byte.
func TestGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"daxpy_natural_cli", []string{"-kernel", "daxpy", "-n", "32", "-mode", "natural", "-scheme", "cli"}},
		{"copy_smc_pi", []string{"-kernel", "copy", "-n", "64", "-mode", "smc", "-scheme", "pi", "-fifo", "16", "-scale", "4"}},
		{"hotrow_smc_pi", []string{"-trace-gen", "hot-row:n=256", "-scheme", "pi", "-mode", "smc"}},
		{"file_natural_pi", []string{"-trace-gen", "@testdata/chase.ndjson", "-scheme", "pi", "-mode", "natural"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(c.args, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("output differs from testdata/%s.golden:\n%s", c.golden, got.String())
			}
		})
	}
}

func TestUnknownMode(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-kernel", "daxpy", "-mode", "bogus"}, `unknown mode "bogus"`},
		{[]string{"-trace-gen", "hot-row:n=64", "-mode", "bogus"}, `unknown mode "bogus" for trace replay (want smc or natural)`},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil || err.Error() != c.want {
			t.Errorf("run(%q) error = %v, want %q", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) wrote output before failing:\n%s", c.args, out.String())
		}
	}
}

// -trace-out must write the materialized trace that testdata/chase.ndjson
// (replayed by the file_natural_pi golden) was recorded from.
func TestTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chase.ndjson")
	if err := run([]string{"-trace-gen", "chase:n=48,write=0.3", "-trace-out", path}, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
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
