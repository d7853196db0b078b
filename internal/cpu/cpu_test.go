// Package cpu holds the processor-level functional check of the paper's
// processor model (§4.1): loads and stores of stream elements issued in
// natural order, with all computation infinitely fast. The model itself
// is the SMC's timing-only front end (internal/smc), which evaluates the
// kernel's arithmetic when a store drains; this package drives it from
// outside through the SMC's public Run and compares the final memory with
// the kernel's golden Replay over a flat memory.
package cpu_test

import (
	"math"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/smc"
	"rdramstream/internal/stream"
)

func TestWalkerFullFunctionalAgainstReplay(t *testing.T) {
	// Walk vaxpy in natural order through the SMC over a device memory and
	// compare the final state with the kernel's golden Replay.
	k := stream.Vaxpy(0, 1000, 2000, 50, 1)
	cfg := smc.DefaultConfig()
	dev := rdram.NewDevice(rdram.DefaultConfig())
	m := addrmap.MustNew(cfg.Scheme, dev.Config().Geometry, cfg.LineWords)
	memGold := map[int64]uint64{}
	for i := int64(0); i < 50; i++ {
		for _, base := range []int64{0, 1000, 2000} {
			v := math.Float64bits(float64(base/100) + float64(i)*0.5)
			loc := m.Map(base + i)
			dev.PokeWord(loc.Bank, loc.Row, loc.Col, loc.Word, v)
			memGold[base+i] = v
		}
	}

	if _, err := smc.Run(dev, k, cfg); err != nil {
		t.Fatal(err)
	}
	k.Replay(
		func(addr int64) uint64 { return memGold[addr] },
		func(addr int64, v uint64) { memGold[addr] = v },
	)
	for addr, want := range memGold {
		loc := m.Map(addr)
		if got := dev.PeekWord(loc.Bank, loc.Row, loc.Col, loc.Word); got != want {
			t.Fatalf("addr %d: device %x, golden %x", addr, got, want)
		}
	}
	// The check is not vacuous: y[1] = a[1]*x[1] + y[1] = 0.5*10.5 + 20.5.
	if got := math.Float64frombits(memGold[2001]); got != 25.75 {
		t.Fatalf("golden y[1] = %v, want 25.75", got)
	}
}
