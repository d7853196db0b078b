package sim

import (
	"fmt"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/cache"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
)

// storeVariants are the controller configurations that write whole lines
// or packets, so each must read-merge the words no stream stores.
var storeVariants = []struct {
	name string
	set  func(*Scenario)
}{
	{"natural-order", func(sc *Scenario) { sc.Controller = "natural-order" }},
	{"natural-order+write-allocate", func(sc *Scenario) {
		sc.Controller = "natural-order"
		sc.WriteAllocate = true
	}},
	{"natural-order+cache", func(sc *Scenario) {
		sc.Controller = "natural-order"
		sc.Cache = &cache.Config{SizeWords: 256, LineWords: 4, Ways: 2}
	}},
	{"conventional", func(sc *Scenario) { sc.Controller = "conventional" }},
	{"smc", func(sc *Scenario) { sc.Controller = "smc" }},
}

// TestReadMergeKeepsUnstoredWords pins the read-merge of every write
// path. verify checks only the addresses the streams touch, so a written
// line's other words could be clobbered without it noticing. Before the
// run every untouched word of each written line (a line covers the
// packets the SMC writes) gets a sentinel; afterwards each sentinel must
// be intact and the run must still verify. Strides 2 and 3 leave gaps
// inside the written lines, and the odd length leaves partial packets and
// lines at the stream ends.
func TestReadMergeKeepsUnstoredWords(t *testing.T) {
	for _, kernel := range []string{"copy", "daxpy", "hydro", "vaxpy"} {
		for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			for _, stride := range []int64{2, 3} {
				for _, v := range storeVariants {
					sc := Scenario{
						KernelName: kernel, N: 129, Stride: stride, Scheme: scheme,
						Placement: stream.Staggered, FIFODepth: 16, Seed: 3,
					}
					v.set(&sc)
					t.Run(fmt.Sprintf("%s/%s/stride%d/%s", kernel, scheme, stride, v.name), func(t *testing.T) {
						checkReadMerge(t, sc.withDefaults())
					})
				}
			}
		}
	}
}

// sentinelAt is the marker value poked into untouched word addr.
func sentinelAt(addr int64) uint64 { return 0x5e47_0000_0000_0000 | uint64(addr) }

func checkReadMerge(t *testing.T, sc Scenario) {
	k, err := BuildKernel(sc)
	if err != nil {
		t.Fatal(err)
	}
	dev := rdram.NewDevice(sc.Device)
	m := addrmap.MustNew(sc.Scheme, sc.Device.Geometry, sc.LineWords)
	var scr scratch
	seed(dev, &m, k, sc.Seed, scr.rng(), &scr.image)

	touched := make(map[int64]bool)
	for _, st := range k.Streams {
		for i := 0; i < st.Length; i++ {
			touched[st.Addr(i)] = true
		}
	}
	lw := int64(sc.LineWords)
	var sentinels []int64
	for _, st := range k.Streams[k.ReadStreams():] {
		for i := 0; i < st.Length; i++ {
			base := st.Addr(i) / lw * lw
			for addr := base; addr < base+lw; addr++ {
				if touched[addr] {
					continue
				}
				loc := m.Map(addr)
				dev.PokeWord(loc.Bank, loc.Row, loc.Col, loc.Word, sentinelAt(addr))
				sentinels = append(sentinels, addr)
			}
		}
	}
	if len(sentinels) == 0 {
		t.Fatal("no untouched words in the written lines; the case tests nothing")
	}

	if _, err := runController(dev, k, sc); err != nil {
		t.Fatal(err)
	}
	if err := verify(dev, &m, k, &scr.image); err != nil {
		t.Fatal(err)
	}
	for _, addr := range sentinels {
		loc := m.Map(addr)
		if got, want := dev.PeekWord(loc.Bank, loc.Row, loc.Col, loc.Word), sentinelAt(addr); got != want {
			t.Fatalf("unstored word %d: device %#x, sentinel %#x", addr, got, want)
		}
	}
}

// TestSkipVerifyMatchesVerified pins the timing-only skip end to end:
// a SkipVerify run seeds nothing and captures no store values, yet must
// report exactly the verified run's result, for every kernel, scheme and
// write path.
func TestSkipVerifyMatchesVerified(t *testing.T) {
	for _, kernel := range []string{"copy", "daxpy", "hydro", "vaxpy"} {
		for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			for _, stride := range []int64{1, 3} {
				for _, v := range storeVariants {
					sc := Scenario{
						KernelName: kernel, N: 300, Stride: stride, Scheme: scheme,
						Placement: stream.Staggered, FIFODepth: 32, Seed: 9,
					}
					v.set(&sc)
					name := fmt.Sprintf("%s/%s/stride%d/%s", kernel, scheme, stride, v.name)
					verified, err := Run(sc)
					if err != nil || !verified.Verified {
						t.Fatalf("%s: verified run: verified=%v err=%v", name, verified.Verified, err)
					}
					sc.SkipVerify = true
					timing, err := Run(sc)
					if err != nil {
						t.Fatalf("%s: SkipVerify run: %v", name, err)
					}
					if timing.Result != verified.Result {
						t.Errorf("%s: SkipVerify result\n%+v\ndiffers from verified\n%+v", name, timing.Result, verified.Result)
					}
				}
			}
		}
	}
}
