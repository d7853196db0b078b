package smc

import (
	"fmt"
	"math"
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
	// Every element already fetched at cycle 0: x[e] = e+1, y[e] = 10(e+1).
	for r, f := range s.reads {
		for e := range 3 {
			f.avail[e&f.mask] = 0
			f.values[e&f.mask] = math.Float64bits(float64((e + 1) * []int{1, 10}[r]))
		}
		f.issued = 3
	}
	xfer := s.fe.xfer
	// Each step advances one access; the table is the pending stream and
	// the per-stream counts (x popped, y popped, y pushed) after it.
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
		got := fmt.Sprint(s.fe.pos, s.reads[0].popped, s.reads[1].popped, s.writes[0].pushed)
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
	w := s.writes[0]
	if w.drained != 0 {
		t.Errorf("%d elements drained with no packet issued", w.drained)
	}
	for e, at := range []int64{3 * xfer, 6 * xfer, 9 * xfer} {
		if got := w.pushedAt[e&w.mask]; got != at {
			t.Errorf("store %d completed at %d, want %d (every third access)", e, got, at)
		}
		// y[e] = 2x[e] + y[e], from the values the front end popped.
		if got, want := math.Float64frombits(w.values[e&w.mask]), float64(12*(e+1)); got != want {
			t.Errorf("store %d value %v, want %v", e, got, want)
		}
	}
}

// TestFIFODepthsVerify runs a read-modify-write kernel (daxpy's y) at
// FIFO depths whose rings are exactly their depth (2, 8, 128) and larger
// than it (3, 5): every run must verify, and its cycles and the
// scheduler's work counts must equal the pinned ones.
func TestFIFODepthsVerify(t *testing.T) {
	for _, c := range []struct {
		scheme                    addrmap.Scheme
		stride                    int64
		depth                     int
		cycles                    int64
		passes, services, wakeups int64
	}{
		{addrmap.CLI, 1, 2, 19759, 4252, 11252, 2751},
		{addrmap.CLI, 1, 3, 14516, 3505, 9011, 2004},
		{addrmap.CLI, 1, 5, 9026, 1520, 3053, 19},
		{addrmap.CLI, 1, 8, 8352, 1519, 2057, 18},
		{addrmap.CLI, 1, 128, 6352, 1587, 1778, 86},
		{addrmap.PI, 3, 2, 18086, 3112, 6269, 111},
		{addrmap.PI, 3, 3, 15450, 3040, 4745, 39},
		{addrmap.PI, 3, 5, 13430, 3010, 3632, 9},
		{addrmap.PI, 3, 8, 12848, 3013, 3335, 12},
		{addrmap.PI, 3, 128, 12290, 3001, 3017, 0},
	} {
		f, _ := stream.FactoryByName("daxpy")
		cfg := Config{Scheme: c.scheme, LineWords: 4, FIFODepth: c.depth}
		bases := stream.MustLayout(c.scheme, rdram.DefaultGeometry(), cfg.LineWords, f.Footprints(1000, c.stride), stream.Staggered)
		dev := rdram.NewDevice(rdram.DefaultConfig())
		k := f.Make(bases, 1000, c.stride)
		shadow := seedVectors(dev, c.scheme, cfg.LineWords, k)
		res, w, err := simulate(dev, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		verifyFunctional(t, dev, c.scheme, cfg.LineWords, k, shadow)
		name := fmt.Sprintf("%v stride %d depth %d", c.scheme, c.stride, c.depth)
		if res.Cycles != c.cycles {
			t.Errorf("%s: %d cycles, want %d", name, res.Cycles, c.cycles)
		}
		if want := (work{c.passes, c.services, c.wakeups}); w != want {
			t.Errorf("%s: work %+v, want %+v", name, w, want)
		}
	}
}

// TestFIFOStateBoundedByDepth checks that a warm run's pooled FIFO state
// depends on the FIFO depth alone: the rings hold as many slots after a
// 65536-element run as after a 1024-element one.
func TestFIFOStateBoundedByDepth(t *testing.T) {
	cfg := Config{Scheme: addrmap.PI, LineWords: 4, FIFODepth: 128}
	slots := func(n int) int {
		runSMC(t, "daxpy", n, 1, cfg, stream.Staggered)
		scr := getScratch()
		defer putScratch(scr)
		total := 0
		for _, f := range scr.reads {
			total += cap(f.avail) + cap(f.values)
		}
		for _, f := range scr.writes {
			total += cap(f.pushedAt) + cap(f.values) + cap(f.drainAt)
		}
		return total
	}
	short := slots(1024)
	if long := slots(65536); long != short {
		t.Errorf("pooled FIFO state holds %d slots after N = 65536, %d after N = 1024", long, short)
	}
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
