package smc

import (
	"fmt"
	"strings"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
)

// newTestSim builds a run's state for k without running it.
func newTestSim(t *testing.T, k *stream.Kernel, cfg Config) *sim {
	t.Helper()
	scr := getScratch()
	t.Cleanup(func() { putScratch(scr) })
	s, err := newSim(rdram.NewDevice(rdram.DefaultConfig()), k, cfg, scr)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFrontEndNaturalOrder drives the processor model against FIFOs that
// never block it: it must perform daxpy's accesses iteration by
// iteration, streams in kernel order, one per xfer cycles, and stop at
// the access whose completion would pass the limit.
func TestFrontEndNaturalOrder(t *testing.T) {
	k := stream.Daxpy(2, 0, 4096, 3, 1)
	s := newTestSim(t, k, Config{Scheme: addrmap.PI, LineWords: 4, FIFODepth: 8})
	for _, f := range s.reads {
		f.avail = append(f.avail, 0, 0, 0) // every element already fetched
		f.issued = 3
	}
	xfer := s.fe.xfer
	// Each step advances one access; the table is the pending stream and
	// the per-stream progress (x popped, y popped, y pushed) after it.
	want := []struct {
		pos                    int
		xPopped, yPopped, yPut int
	}{
		{1, 1, 0, 0}, {2, 1, 1, 0}, {0, 1, 1, 1},
		{1, 2, 1, 1}, {2, 2, 2, 1}, {0, 2, 2, 2},
		{1, 3, 2, 2}, {2, 3, 3, 2}, {0, 3, 3, 3},
	}
	for step, w := range want {
		s.feAdvance(int64(step+1)*xfer + xfer - 1) // room for one more access only
		got := fmt.Sprint(s.fe.pos, s.reads[0].popped, s.reads[1].popped, len(s.writes[0].pushedAt))
		if exp := fmt.Sprint(w.pos, w.xPopped, w.yPopped, w.yPut); got != exp {
			t.Fatalf("after access %d: pos, x popped, y popped, y pushed = %s, want %s", step+1, got, exp)
		}
		if s.fe.time != int64(step+1)*xfer {
			t.Fatalf("after access %d: time %d, want %d", step+1, s.fe.time, int64(step+1)*xfer)
		}
	}
	if !s.feDone() || s.feNextEvent() != unscheduled {
		t.Errorf("front end not done after every access: iter %d pos %d", s.fe.iter, s.fe.pos)
	}
	if got := s.writes[0].pushedAt; got[0] != 3*xfer || got[1] != 6*xfer || got[2] != 9*xfer {
		t.Errorf("store completions %v, want every third access", got)
	}
}

// TestDrainBeforeFetchPanics checks the MSU's own consistency check: a
// write packet drained before every read of its iterations was fetched
// would store values computed from loads that never happened, so the
// kernel arithmetic refuses it.
func TestDrainBeforeFetchPanics(t *testing.T) {
	s := newTestSim(t, stream.Copy(0, 4096, 2, 1), Config{Scheme: addrmap.PI, LineWords: 4, FIFODepth: 8})
	w := s.writes[0]
	w.pushedAt = append(w.pushedAt, 1, 2) // as if the processor stored both elements
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "store drained before read stream 0 was fetched") {
			t.Errorf("panic %q, want the drain-before-fetch check", msg)
		}
	}()
	s.issue(s.nr)
}

// TestSMCRejectsInvalidKernel checks that a kernel violating the
// natural-order invariants is an error, not a crash mid-run.
func TestSMCRejectsInvalidKernel(t *testing.T) {
	k := stream.Copy(0, 100, 4, 1)
	k.Compute = nil
	if _, err := Run(rdram.NewDevice(rdram.DefaultConfig()), k, DefaultConfig()); err == nil {
		t.Error("expected an error for a kernel without Compute")
	}
}
