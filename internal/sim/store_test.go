package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/cache"
	"rdramstream/internal/fault"
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
	seedGolden(dev, &m, k, sc.Seed, scr.rng(), &scr.image)

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

	if _, err := runController(dev, k, sc, &scr.image); err != nil {
		t.Fatal(err)
	}
	if err := verify(dev, &m, &scr.image); err != nil {
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

// TestSkipVerifyComputesNothing: a timing-only run does no functional
// work at all. Data never influences timing, so a SkipVerify run seeds
// nothing, replays no golden and, in the SMC, neither captures loads nor
// computes stores: its kernel's arithmetic must never run.
func TestSkipVerifyComputesNothing(t *testing.T) {
	for _, v := range storeVariants {
		sc := Scenario{Scheme: addrmap.PI, SkipVerify: true}
		v.set(&sc)
		k := stream.Daxpy(3, 0, 4096, 300, 1)
		k.Compute = func(int, []float64) []float64 { panic("kernel arithmetic ran in a timing-only run") }
		if _, err := RunKernel(k, sc); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
	}
}

// smcAccepts reports whether the SMC computes k's golden. The SMC stores
// values computed from the words its read FIFOs fetched, in the order the
// MSU chose, so it needs streams that do not alias across elements: no
// write stream may share a word with a read stream other than its exact
// twin (daxpy's y, read and stored at the same element), and no two write
// streams may share a packet, which the MSU writes whole.
func smcAccepts(k *stream.Kernel) bool {
	nr := k.ReadStreams()
	stored := make(map[int64]int) // word -> the write stream storing it
	packets := make(map[int64]int)
	for j := nr; j < len(k.Streams); j++ {
		st := k.Streams[j]
		for i := 0; i < st.Length; i++ {
			addr := st.Addr(i)
			if w, ok := packets[addr/rdram.WordsPerPacket]; ok && w != j {
				return false
			}
			packets[addr/rdram.WordsPerPacket] = j
			stored[addr] = j
		}
	}
	for _, st := range k.Streams[:nr] {
		for i := 0; i < st.Length; i++ {
			if j, ok := stored[st.Addr(i)]; ok {
				if w := k.Streams[j]; w.Base != st.Base || w.Stride != st.Stride {
					return false
				}
			}
		}
	}
	return true
}

// TestStorePathMatchesMapReference checks every store path against a
// reference that shares no code with engine.Image: random aliasing
// kernels through each write variant (the SMC only on kernels it
// accepts), under CLI and PI, with and without faults, each through
// runKernel — RunKernel's body — and verified. The device must then equal
// the map-backed reference (refSeed, replayed on a second device) at
// every stream address and its neighbours, and refVerify must pass on it.
func TestStorePathMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	geoms := stripeGeometries()
	runs := make(map[string]int)
	// Kernels the SMC accepts are rarer: keep drawing until it has as
	// many runs as the cacheline variants, which take the first 80
	// valid kernels.
	const kernels = 80
	for c, valid := 0, 0; c < 10000 && runs["smc"] < 4*kernels; c++ {
		cfg := rdram.DefaultConfig()
		cfg.Geometry = geoms[c%len(geoms)]
		k := randomAliasingKernel(r, cfg.Geometry)
		if k.Validate() != nil {
			continue // the controllers take positive strides only
		}
		valid++
		for _, v := range storeVariants {
			if v.name == "smc" && !smcAccepts(k) || v.name != "smc" && valid > kernels {
				continue
			}
			for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
				for severity := 0; severity <= 1; severity++ {
					sc := Scenario{Scheme: scheme, Device: cfg, FIFODepth: 16, Seed: int64(c)}
					v.set(&sc)
					if f := fault.Scaled(int64(c), severity); f.Active() {
						sc.Fault = &f
					}
					name := fmt.Sprintf("case %d %s %v severity %d", c, v.name, scheme, severity)
					checkStorePath(t, name, c, k, sc.withDefaults())
					runs[v.name]++
				}
			}
		}
	}
	for _, v := range storeVariants {
		if runs[v.name] != 4*kernels {
			t.Errorf("%s ran %d cases, want %d", v.name, runs[v.name], 4*kernels)
		}
	}
}

func checkStorePath(t *testing.T, name string, c int, k *stream.Kernel, sc Scenario) {
	t.Helper()
	dev, scr, err := newDevice(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer scr.release(dev)
	out, err := runKernel(dev, scr, k, sc)
	if err != nil || !out.Verified {
		t.Fatalf("%s: verified=%v err=%v", name, out.Verified, err)
	}
	m := addrmap.MustNew(sc.Scheme, sc.Device.Geometry, sc.LineWords)
	ref := rdram.NewDevice(sc.Device)
	shadow, _ := refSeed(ref, &m, k, sc.Seed)
	if err := refVerify(dev, &m, k, shadow); err != nil {
		t.Fatalf("%s: reference verify: %v", name, err)
	}
	replayOnDevice(ref, &m, k)
	assertSameImage(t, c, dev, ref, &m, k)
}
