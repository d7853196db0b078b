package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
)

// randomAliasingKernel builds a kernel whose streams alias or partly
// overlap: a few vectors at random (sometimes overlapping, sometimes far
// apart) bases, streams offset into them with strides 1–8, and write
// streams that sometimes read-modify-write a read stream's exact
// elements, as daxpy's y does.
func randomAliasingKernel(r *rand.Rand) *stream.Kernel {
	n := 1 + r.Intn(400)
	vecs := make([]int64, 1+r.Intn(3))
	for i := range vecs {
		if r.Intn(4) == 0 {
			vecs[i] = r.Int63n(1 << 20)
		} else {
			vecs[i] = r.Int63n(4096)
		}
	}
	newStream := func(mode stream.Mode) stream.Stream {
		return stream.Stream{
			Base:   vecs[r.Intn(len(vecs))] + r.Int63n(16),
			Stride: 1 + r.Int63n(8),
			Length: n,
			Mode:   mode,
		}
	}
	nr, nw := 1+r.Intn(3), 1+r.Intn(2)
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
// as the reference the property test compares against.
func refStoreValues(dev *rdram.Device, m *addrmap.Mapper, k *stream.Kernel) map[int64]uint64 {
	vals := make(map[int64]uint64)
	k.Replay(
		func(addr int64) uint64 {
			if v, ok := vals[addr]; ok {
				return v
			}
			return peek(dev, m, addr)
		},
		func(addr int64, v uint64) { vals[addr] = v },
	)
	return vals
}

// TestStoreValuesMatchesMapReference checks the image-backed StoreValues
// against the map reference over random aliasing kernels: the same value
// at every stored address, and absent everywhere else — at every stream
// address and its neighbours, and outside the kernel's span. Images are
// released and reused across cases, as in a sweep.
func TestStoreValuesMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cfg := rdram.DefaultConfig()
	for c := 0; c < 300; c++ {
		k := randomAliasingKernel(r)
		m := addrmap.MustNew(addrmap.Scheme(r.Intn(2)), cfg.Geometry, 4)
		dev := rdram.NewDevice(cfg)
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
		n := 0
		img.Range(func(addr int64, v uint64) bool {
			if want, ok := ref[addr]; !ok || v != want {
				t.Fatalf("case %d: image holds %#x at %d, reference %#x (stored %v)", c, v, addr, want, ok)
			}
			n++
			return true
		})
		if n != len(ref) {
			t.Fatalf("case %d: image holds %d words, reference %d", c, n, len(ref))
		}
		probe := func(addr int64) {
			v, ok := img.Get(addr)
			want, wantOK := ref[addr]
			if ok != wantOK || v != want {
				t.Fatalf("case %d: Get(%d) = %#x, %v; reference %#x, %v", c, addr, v, ok, want, wantOK)
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
		img.Release()
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
	img := StoreValues(dev, addrmap.MustNew(addrmap.PI, cfg.Geometry, 4), k)
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
