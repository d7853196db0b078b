package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// A sweep that fails after profiling started still writes both profiles.
func TestFailedRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-var", "bogus", "-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if want := "sweep: unknown variable \"bogus\"\n"; stderr.String() != want {
		t.Errorf("stderr %q, want %q", stderr.String(), want)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written (%v)", filepath.Base(p), err)
		}
	}
}
