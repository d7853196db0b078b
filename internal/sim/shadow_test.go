package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/engine"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
)

// TestVerifyFailureNamesLowestAddress corrupts device words between a
// controller run and verify: the check must fail, name the lowest
// corrupted address whatever order the corruption happened in, and
// produce the same message on every repetition — on the paper's PI part,
// and under CLI on a two-chip channel, whose 16-bank stripe spans two
// image pages.
func TestVerifyFailureNamesLowestAddress(t *testing.T) {
	pi := Scenario{
		KernelName: "daxpy", N: 2048, Scheme: addrmap.PI, Mode: SMC,
		FIFODepth: 64, Placement: stream.Staggered, Seed: 5,
	}.withDefaults()
	cli := pi
	cli.Scheme = addrmap.CLI
	cli.Device.Geometry.Banks *= 2
	cli.Device.Geometry.DevicesOnChannel = 2
	t.Run("PI", func(t *testing.T) { checkVerifyNamesLowest(t, pi) })
	t.Run("CLI-2chip", func(t *testing.T) { checkVerifyNamesLowest(t, cli) })
}

func checkVerifyNamesLowest(t *testing.T, sc Scenario) {
	k, err := BuildKernel(sc)
	if err != nil {
		t.Fatal(err)
	}
	x, y := k.Streams[0], k.Streams[1]
	lo, hi := x.Addr(1500), y.Addr(3) // y lies above x in the layout
	if lo >= hi {
		t.Fatalf("layout changed: x[1500]=%d is not below y[3]=%d", lo, hi)
	}
	var scr scratch // reused across repetitions, like a sweep's pooled scratch
	var msgs []string
	for rep := 0; rep < 3; rep++ {
		dev := rdram.NewDevice(sc.Device)
		m := addrmap.MustNew(sc.Scheme, sc.Device.Geometry, sc.LineWords)
		seed(dev, &m, k, sc.Seed, scr.rng(), &scr.image)
		if _, err := runController(dev, k, sc); err != nil {
			t.Fatal(err)
		}
		var want string
		for _, addr := range []int64{hi, lo} { // the higher address first
			loc := m.Map(addr)
			v := dev.PeekWord(loc.Bank, loc.Row, loc.Col, loc.Word)
			dev.PokeWord(loc.Bank, loc.Row, loc.Col, loc.Word, v^1)
			if addr == lo {
				// x is read-only, so its golden value is what the run
				// left on the device.
				want = fmt.Sprintf("sim: functional verification failed: address %d: device %#x, golden %#x", lo, v^1, v)
			}
		}
		err := verify(dev, &m, k, &scr.image)
		if err == nil {
			t.Fatal("verify passed over a corrupted device")
		}
		if err.Error() != want {
			t.Fatalf("rep %d: error %q, want %q", rep, err, want)
		}
		msgs = append(msgs, err.Error())
	}
	for i, msg := range msgs {
		if msg != msgs[0] {
			t.Errorf("rep %d message %q differs from rep 0 %q", i, msg, msgs[0])
		}
	}
	// Uncorrupted, the same scenario verifies through the public path.
	if out, err := Run(sc); err != nil || !out.Verified {
		t.Fatalf("clean run: verified=%v err=%v", out.Verified, err)
	}
}

// refSeed and refVerify are the map-backed seed and verify the shadow
// image replaced, kept as the reference the property test compares
// against. refVerify reports the lowest mismatched address, the order the
// shadow image guarantees.
func refSeed(dev *rdram.Device, m *addrmap.Mapper, k *stream.Kernel, s int64) (map[int64]uint64, *rand.Rand) {
	rng := rand.New(rand.NewSource(s + 1))
	shadow := make(map[int64]uint64)
	for _, st := range k.Streams {
		for i := 0; i < st.Length; i++ {
			addr := st.Addr(i)
			if _, done := shadow[addr]; done {
				continue
			}
			v := math.Float64bits(float64(rng.Intn(1024)) / 8)
			loc := m.Map(addr)
			dev.PokeWord(loc.Bank, loc.Row, loc.Col, loc.Word, v)
			shadow[addr] = v
		}
	}
	return shadow, rng
}

func refVerify(dev *rdram.Device, m *addrmap.Mapper, k *stream.Kernel, shadow map[int64]uint64) error {
	k.Replay(
		func(addr int64) uint64 { return shadow[addr] },
		func(addr int64, v uint64) { shadow[addr] = v },
	)
	addrs := make([]int64, 0, len(shadow))
	for addr := range shadow {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	for _, addr := range addrs {
		loc := m.Map(addr)
		if got, want := dev.PeekWord(loc.Bank, loc.Row, loc.Col, loc.Word), shadow[addr]; got != want {
			return fmt.Errorf("sim: functional verification failed: address %d: device %#x, golden %#x", addr, got, want)
		}
	}
	return nil
}

// stripeGeometries are FuzzMapUnmap's 18 geometries — 8, 6 or 16 banks,
// 128-, 64- or 256-word pages, on one chip or split over two — plus a
// four-chip channel of 32 banks. Their stripes (Banks × PageWords words)
// are smaller than, equal to and larger than a 1024-word image page, and
// some are not aligned to one.
func stripeGeometries() []rdram.Geometry {
	var gs []rdram.Geometry
	for raw := 0; raw < 18; raw++ {
		gs = append(gs, rdram.Geometry{
			Banks:            []int{8, 6, 16}[raw%3],
			PageWords:        []int{128, 64, 256}[raw/3%3],
			PagesPerBank:     64,
			DevicesOnChannel: []int{0, 2}[raw/9%2],
		})
	}
	return append(gs, rdram.Geometry{Banks: 32, PageWords: 128, PagesPerBank: 64, DevicesOnChannel: 4})
}

// randomAliasingKernel builds a caller-made kernel over geometry g whose
// streams alias or partly overlap: one to six read streams and one to
// three write streams offset into a few vectors at random (sometimes
// overlapping, sometimes far apart) bases, and write streams that
// sometimes read-modify-write a read stream's exact elements, as daxpy's
// y does. Strides run 1–16, with some longer than a stripe, some
// negative and some zero, which RunKernel's caller-built kernels allow.
func randomAliasingKernel(r *rand.Rand, g rdram.Geometry) *stream.Kernel {
	capacity := int64(g.Banks) * int64(g.PagesPerBank) * int64(g.PageWords)
	stripe := int64(g.Banks * g.PageWords)
	n := 1 + r.Intn(300)
	vecs := make([]int64, 1+r.Intn(3))
	for i := range vecs {
		vecs[i] = r.Int63n(capacity)
		if r.Intn(4) != 0 {
			vecs[i] %= 4096
		}
	}
	newStream := func(mode stream.Mode) stream.Stream {
		var stride int64
		switch c := r.Intn(10); {
		case c < 7:
			stride = 1 + r.Int63n(16)
		case c == 7:
			stride = stripe + 1 + r.Int63n(stripe)
		case c == 8:
			stride = -1 - r.Int63n(16)
		}
		extent := int64(n-1) * stride
		if extent < 0 {
			extent = -extent
		}
		if extent >= capacity { // too long for the device: shrink the stride
			stride = stride / (extent/capacity + 1)
			extent = int64(n-1) * max(stride, -stride)
		}
		base := min(vecs[r.Intn(len(vecs))]+r.Int63n(16), capacity-1)
		if stride >= 0 {
			base = min(base, capacity-1-extent)
		} else {
			base = max(base, extent)
		}
		return stream.Stream{Base: base, Stride: stride, Length: n, Mode: mode}
	}
	nr, nw := 1+r.Intn(6), 1+r.Intn(3)
	k := &stream.Kernel{Name: "aliasing"}
	for i := 0; i < nr; i++ {
		s := newStream(stream.Read)
		s.Name = fmt.Sprintf("r%d", i)
		k.Streams = append(k.Streams, s)
	}
	for i := 0; i < nw; i++ {
		s := newStream(stream.Write)
		if r.Intn(3) == 0 {
			s = k.Streams[r.Intn(nr)] // read-modify-write
			s.Mode = stream.Write
		}
		s.Name = fmt.Sprintf("w%d", i)
		k.Streams = append(k.Streams, s)
	}
	out := make([]float64, nw)
	k.Compute = func(i int, in []float64) []float64 {
		for w := range out {
			out[w] = in[0] + 2*in[len(in)-1] + float64(w+i%4)
		}
		return out
	}
	return k
}

// replayOnDevice executes k functionally against the device itself,
// standing in for a controller run with a known final image.
func replayOnDevice(dev *rdram.Device, m *addrmap.Mapper, k *stream.Kernel) {
	k.Replay(
		func(addr int64) uint64 {
			loc := m.Map(addr)
			return dev.PeekWord(loc.Bank, loc.Row, loc.Col, loc.Word)
		},
		func(addr int64, v uint64) {
			loc := m.Map(addr)
			dev.PokeWord(loc.Bank, loc.Row, loc.Col, loc.Word, v)
		},
	)
}

// imageWords counts the words present in img: seed draws exactly once
// per present word.
func imageWords(img *engine.Image) int {
	n := 0
	img.Range(func(int64, uint64) bool { n++; return true })
	return n
}

// TestSeedVerifyMatchesMapReference checks the shadow image against the
// map-backed reference over random aliasing kernels on every stripe
// shape: the same device image, the same number of rng draws, and the
// same verdict — including the failure message when device words are
// corrupted after the run.
func TestSeedVerifyMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cfg := rdram.DefaultConfig()
	geoms := stripeGeometries()
	var scr scratch // one image reused across cases, as in a sweep
	failures := 0
	const cases = 380
	for c := 0; c < cases; c++ {
		cfg.Geometry = geoms[c%len(geoms)]
		k := randomAliasingKernel(r, cfg.Geometry)
		scheme := addrmap.Scheme(r.Intn(2))
		m := addrmap.MustNew(scheme, cfg.Geometry, 2<<r.Intn(4))
		s := r.Int63n(1000)

		got, ref := rdram.NewDevice(cfg), rdram.NewDevice(cfg)
		rng := scr.rng()
		seed(got, &m, k, s, rng, &scr.image)
		shadowRef, rngRef := refSeed(ref, &m, k, s)

		// Same draw count: the generators are at the same position, and
		// the image holds one word per draw.
		if a, b := rng.Int63(), rngRef.Int63(); a != b {
			t.Fatalf("case %d: generators diverged after seeding (%d vs %d)", c, a, b)
		}
		if n := imageWords(&scr.image); n != len(shadowRef) {
			t.Fatalf("case %d: image holds %d words, reference %d", c, n, len(shadowRef))
		}
		assertSameImage(t, c, got, ref, &m, k)

		replayOnDevice(got, &m, k)
		replayOnDevice(ref, &m, k)
		for j := r.Intn(3); j > 0; j-- { // corrupt 0–2 words, on both devices
			st := k.Streams[r.Intn(len(k.Streams))]
			loc := m.Map(st.Addr(r.Intn(st.Length)))
			for _, d := range []*rdram.Device{got, ref} {
				d.PokeWord(loc.Bank, loc.Row, loc.Col, loc.Word, d.PeekWord(loc.Bank, loc.Row, loc.Col, loc.Word)+1)
			}
		}
		errGot := verify(got, &m, k, &scr.image)
		errRef := refVerify(ref, &m, k, shadowRef)
		if fmt.Sprint(errGot) != fmt.Sprint(errRef) {
			t.Fatalf("case %d: verdict %v, reference %v", c, errGot, errRef)
		}
		if errGot != nil {
			failures++
		}
		assertSameImage(t, c, got, ref, &m, k)
	}
	if failures == 0 || failures == cases {
		t.Errorf("%d of %d cases failed verification; want a mix", failures, cases)
	}
}

// assertSameImage compares the two devices at every stream address and
// its neighbours.
func assertSameImage(t *testing.T, c int, a, b *rdram.Device, m *addrmap.Mapper, k *stream.Kernel) {
	t.Helper()
	for _, st := range k.Streams {
		for i := 0; i < st.Length; i++ {
			for _, addr := range []int64{st.Addr(i) - 1, st.Addr(i), st.Addr(i) + 1} {
				if addr < 0 || addr >= m.CapacityWords() {
					continue
				}
				loc := m.Map(addr)
				va := a.PeekWord(loc.Bank, loc.Row, loc.Col, loc.Word)
				vb := b.PeekWord(loc.Bank, loc.Row, loc.Col, loc.Word)
				if va != vb {
					t.Fatalf("case %d: address %d holds %#x, reference %#x", c, addr, va, vb)
				}
			}
		}
	}
}

// TestShadowResetEmptiesImage reuses one image across kernels of very
// different spans: nothing from an earlier kernel may leak into a later
// one, at any address either kernel touches.
func TestShadowResetEmptiesImage(t *testing.T) {
	var img engine.Image
	wide := &stream.Kernel{Streams: []stream.Stream{
		{Base: 0, Stride: 1, Length: 10},
		{Base: 1 << 20, Stride: 3, Length: 2000, Mode: stream.Write},
	}}
	narrow := &stream.Kernel{Streams: []stream.Stream{{Base: 5000, Stride: 2, Length: 100}}}
	empty := &stream.Kernel{Streams: []stream.Stream{{Base: 7, Stride: 1}}}
	kernels := []*stream.Kernel{wide, narrow, wide, empty, narrow}
	cfg := rdram.DefaultConfig()
	m := addrmap.MustNew(addrmap.PI, cfg.Geometry, 4)
	for _, k := range kernels {
		img.Reset(k)
		if n := imageWords(&img); n != 0 {
			t.Fatalf("reset image holds %d words", n)
		}
		for _, other := range kernels {
			for _, st := range other.Streams {
				for i := 0; i < st.Length; i++ {
					if v, ok := img.Get(st.Addr(i)); ok {
						t.Fatalf("reset image holds %#x at address %d", v, st.Addr(i))
					}
				}
			}
		}
		var draws uint64
		img.Seed(rdram.NewDevice(cfg), &m, k, func() uint64 { draws++; return draws })
	}
}
