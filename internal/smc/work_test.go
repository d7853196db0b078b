package smc

import (
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
)

// TestSchedulerWorkCounts pins the MSU's work on daxpy N=1024 in the
// kernel-grid shape (aligned placement, 32-element FIFOs) as exact
// counts: run-loop passes, canService calls and nextWakeup calls. A
// change to the issue loop that does more or less scheduling shows here
// as a count, where a timing could not resolve it. The counts say the
// loop wastes nothing: at most 1.02 passes and 1.12 canService calls per
// packet, and a time jump on at most one packet in fifty.
func TestSchedulerWorkCounts(t *testing.T) {
	for _, c := range []struct {
		scheme                    addrmap.Scheme
		stride                    int64
		packets                   int64
		passes, services, wakeups int64
	}{
		{addrmap.CLI, 1, 1536, 1569, 1712, 32},
		{addrmap.CLI, 4, 3072, 3073, 3137, 0},
		{addrmap.PI, 1, 1536, 1552, 1661, 15},
		{addrmap.PI, 4, 3072, 3073, 3137, 0},
	} {
		f, _ := stream.FactoryByName("daxpy")
		cfg := Config{Scheme: c.scheme, LineWords: 4, FIFODepth: 32}
		bases := stream.MustLayout(c.scheme, rdram.DefaultGeometry(), cfg.LineWords, f.Footprints(1024, c.stride), stream.Aligned)
		dev := rdram.NewDevice(rdram.DefaultConfig())
		_, w, err := simulate(dev, f.Make(bases, 1024, c.stride), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := dev.Stats().PacketCount(); got != c.packets {
			t.Errorf("%v stride %d: %d packets, want %d", c.scheme, c.stride, got, c.packets)
		}
		if want := (work{c.passes, c.services, c.wakeups}); w != want {
			t.Errorf("%v stride %d: work %+v, want %+v", c.scheme, c.stride, w, want)
		}
	}
}
