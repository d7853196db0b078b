package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
)

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

// refStoreValues is the map-backed store capture the image replaced, kept
// as the reference the property test compares against. It reads unstored
// words one Map and PeekWord at a time, independently of Cursor.
func refStoreValues(dev *rdram.Device, m *addrmap.Mapper, k *stream.Kernel) map[int64]uint64 {
	vals := make(map[int64]uint64)
	k.Replay(
		func(addr int64) uint64 {
			if v, ok := vals[addr]; ok {
				return v
			}
			loc := m.Map(addr)
			return dev.PeekWord(loc.Bank, loc.Row, loc.Col, loc.Word)
		},
		func(addr int64, v uint64) { vals[addr] = v },
	)
	return vals
}

// TestStoreValuesMatchesMapReference checks the image-backed StoreValues
// against the map reference over random aliasing kernels on every stripe
// shape. Images are released and reused across cases, as in a sweep.
func TestStoreValuesMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cfg := rdram.DefaultConfig()
	geoms := stripeGeometries()
	for c := 0; c < 380; c++ {
		cfg.Geometry = geoms[c%len(geoms)]
		k := randomAliasingKernel(r, cfg.Geometry)
		m := addrmap.MustNew(addrmap.Scheme(r.Intn(2)), cfg.Geometry, 2<<r.Intn(4))
		checkStoreValues(t, fmt.Sprintf("case %d", c), rdram.NewDevice(cfg), &m, k, r)
	}
}

// TestStoreValuesManyStripes replays a kernel whose twelve streams sit in
// twelve different stripes, more than a Cursor holds, so every chunk
// evicts stripes that other streams are still walking.
func TestStoreValuesManyStripes(t *testing.T) {
	cfg := rdram.DefaultConfig()
	r := rand.New(rand.NewSource(2))
	for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
		m := addrmap.MustNew(scheme, cfg.Geometry, 4)
		bases := make([]int64, 12)
		for i := range bases {
			bases[i] = int64(i)*5*int64(m.StripeWords()) + int64(i)*7
		}
		k := stream.MultiStream(11, 1, bases, 3000, 1)
		checkStoreValues(t, scheme.String(), rdram.NewDevice(cfg), &m, k, r)
	}
}

// checkStoreValues fills every stream address of dev with a random word
// and compares StoreValues with the map reference: the same value at
// every stored address, and absent everywhere else — at every stream
// address and its neighbours, and outside the kernel's span.
func checkStoreValues(t *testing.T, name string, dev *rdram.Device, m *addrmap.Mapper, k *stream.Kernel, r *rand.Rand) {
	t.Helper()
	lo, hi := k.Streams[0].Addr(0), k.Streams[0].Addr(0)
	for _, st := range k.Streams {
		for i := 0; i < st.Length; i++ {
			addr := st.Addr(i)
			lo, hi = min(lo, addr), max(hi, addr)
			loc := m.Map(addr)
			dev.PokeWord(loc.Bank, loc.Row, loc.Col, loc.Word, uint64(r.Intn(1024)))
		}
	}

	ref := refStoreValues(dev, m, k)
	img := StoreValues(dev, m, k)
	defer img.Release()
	n := 0
	img.Range(func(addr int64, v uint64) bool {
		if want, ok := ref[addr]; !ok || v != want {
			t.Fatalf("%s: image holds %#x at %d, reference %#x (stored %v)", name, v, addr, want, ok)
		}
		n++
		return true
	})
	if n != len(ref) {
		t.Fatalf("%s: image holds %d words, reference %d", name, n, len(ref))
	}
	probe := func(addr int64) {
		v, ok := img.Get(addr)
		want, wantOK := ref[addr]
		if ok != wantOK || v != want {
			t.Fatalf("%s: Get(%d) = %#x, %v; reference %#x, %v", name, addr, v, ok, want, wantOK)
		}
	}
	for _, st := range k.Streams {
		for i := 0; i < st.Length; i++ {
			for d := int64(-2); d <= 2; d++ {
				probe(st.Addr(i) + d)
			}
		}
	}
	for _, addr := range []int64{-1, lo - 1, lo - imagePageWords, hi + 1, hi + imagePageWords, hi + 1<<30} {
		probe(addr)
	}
}

// TestStoreValuesTimingOnlySkipsReplay: a timing-only device stores no
// data, so StoreValues must return an empty image without running the
// kernel at all.
func TestStoreValuesTimingOnlySkipsReplay(t *testing.T) {
	cfg := rdram.DefaultConfig()
	dev := rdram.NewDevice(cfg)
	dev.SetTimingOnly(true)
	k := &stream.Kernel{Name: "trap", Streams: []stream.Stream{
		{Name: "x", Base: 0, Stride: 1, Length: 64},
		{Name: "y", Base: 4096, Stride: 1, Length: 64, Mode: stream.Write},
	}}
	k.Compute = func(int, []float64) []float64 { panic("kernel replayed on a timing-only device") }
	m := addrmap.MustNew(addrmap.PI, cfg.Geometry, 4)
	img := StoreValues(dev, &m, k)
	defer img.Release()
	img.Range(func(addr int64, _ uint64) bool {
		t.Fatalf("timing-only image holds address %d", addr)
		return false
	})
	for _, st := range k.Streams {
		for i := 0; i < st.Length; i++ {
			if _, ok := img.Get(st.Addr(i)); ok {
				t.Fatalf("timing-only image holds address %d", st.Addr(i))
			}
		}
	}
}
