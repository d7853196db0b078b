package engine

import (
	"fmt"
	"math"
	"math/bits"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
)

// The functional harness's walks over a kernel's streams: seeding the
// device and the golden image, the golden replay, and the final
// comparison. Seed and Mismatch walk chunks — elements that share one
// stripe of the device (Cursor.chunk) and one image page — looking both
// up once per chunk, and move device words an interleave unit at a time
// (Cursor.seg), indexing within it. Replay never touches the device: its
// chunks share one image page per stream.

// walkStream is one stream's place in a chunked replay: the next
// element's address, the stream's stride and the image page holding the
// address.
type walkStream struct {
	addr   int64
	stride int64
	p      *imagePage
}

// Seed resets the image to k's span and gives every stream element a
// value: one draw per address not yet in the image, in stream then
// element order, stored on dev (under mapper m) and in the image.
func (img *Image) Seed(dev *rdram.Device, m *addrmap.Mapper, k *stream.Kernel, draw func() uint64) {
	img.Reset(k)
	img.cur.reset(dev, m)
	for j := range k.Streams {
		st := &k.Streams[j]
		for i := 0; i < st.Length; {
			i = img.seedChunk(st, i, draw)
		}
	}
}

// seedChunk seeds the chunk of st that starts at element i and returns
// the element after it.
// rdlint:hotpath
func (img *Image) seedChunk(st *stream.Stream, i int, draw func() uint64) int {
	c := &img.cur
	s, n := c.chunk(st, i)
	addr := st.Addr(i)
	p := img.page(addr)
	if p == nil {
		p = img.pageFor(addr)
	}
	for end := i + n; i < end; {
		seg := c.seg(s, addr)
		for k := int64(0); uint64(k) < uint64(len(seg)) && i < end; k, i, addr = k+st.Stride, i+1, addr+st.Stride {
			if _, ok := p.get(addr); ok {
				continue
			}
			v := draw()
			seg[k] = v
			p.set(addr, v)
		}
	}
	return i
}

// Replay executes k functionally over the image alone, one chunk of
// elements at a time: loads read it, stores write it. It never reads the
// device, which is what makes it the golden model a run's device
// contents are checked against, and it runs before the controller, so
// the golden is also the store image the line controllers write from
// (Options.Store). Every address the kernel loads must be in the
// image, as Seed leaves it. Within each element the reads precede the
// writes, as the kernel's streams are listed, so a read sees every value
// stored at an earlier element.
func (img *Image) Replay(k *stream.Kernel) {
	nr := k.ReadStreams()
	if cap(img.walk) < len(k.Streams) {
		img.walk = make([]walkStream, len(k.Streams))
	}
	if cap(img.in) < nr {
		img.in = make([]float64, nr)
	}
	ws, in := img.walk[:len(k.Streams)], img.in[:nr]
	for i := 0; i < k.Iterations(); {
		i = img.replayChunk(k, i, ws, in)
	}
}

// replayChunk replays the chunk of k that starts at element i — as many
// elements as keep every stream inside one image page — and returns the
// element after it.
// rdlint:hotpath
func (img *Image) replayChunk(k *stream.Kernel, i int, ws []walkStream, in []float64) int {
	nr := len(in)
	n := k.Iterations() - i
	// Write streams first: their image pages exist before the read
	// streams look theirs up, so a read sees what this chunk stores.
	for j := len(ws) - 1; j >= 0; j-- {
		st, w := &k.Streams[j], &ws[j]
		w.addr, w.stride = st.Addr(i), st.Stride
		n = min(n, span(st, i, w.addr&^imageMask, w.addr|imageMask+1))
		if w.p = img.page(w.addr); w.p == nil && j >= nr {
			w.p = img.pageFor(w.addr)
		}
	}
	for end := i + n; i < end; i++ {
		for r := range in {
			w := &ws[r]
			in[r] = math.Float64frombits(w.load())
			w.addr += w.stride
		}
		out := k.Compute(i, in)
		if len(out) != len(ws)-nr {
			panic(fmt.Sprintf("engine: kernel %q Compute returned %d values, want %d", k.Name, len(out), len(ws)-nr))
		}
		for o, v := range out {
			w := &ws[nr+o]
			w.p.set(w.addr, math.Float64bits(v))
			w.addr += w.stride
		}
	}
	return i
}

// load returns the image's word at w's address, 0 when it has none.
// rdlint:hotpath
func (w *walkStream) load() uint64 {
	if w.p == nil {
		return 0
	}
	v, _ := w.p.get(w.addr)
	return v
}

// span returns how many elements of st from element i on, at least one,
// lie in the address range [lo, hi) that holds element i.
// rdlint:hotpath
func span(st *stream.Stream, i int, lo, hi int64) int {
	addr := st.Addr(i)
	left := int64(st.Length - i)
	n := left
	switch {
	case st.Stride > 0:
		n = (hi-1-addr)/st.Stride + 1
	case st.Stride < 0:
		n = (addr-lo)/-st.Stride + 1
	}
	return int(min(n, left))
}

// Mismatch compares every word in the image with dev's word at the same
// address (under mapper m), in ascending address order, and returns the
// first that differs: its address, the device's word and the image's.
// found is false when every word matches.
// rdlint:hotpath
func (img *Image) Mismatch(dev *rdram.Device, m *addrmap.Mapper) (addr int64, got, want uint64, found bool) {
	c := &img.cur
	c.reset(dev, m)
	var s *cursorStripe
	var seg []uint64 // the device unit holding segAt, from segAt on
	var segAt int64
	for slot, i := range img.table {
		if i == 0 {
			continue
		}
		p := img.pages[i-1]
		base := (img.base + int64(slot)) << imageShift
		for wi, set := range p.present {
			for set != 0 {
				w := wi*64 + bits.TrailingZeros64(set)
				set &= set - 1
				addr := base + int64(w)
				k := addr - segAt
				if uint64(k) >= uint64(len(seg)) {
					if s == nil || addr >= s.hi {
						s = c.find(addr)
					}
					seg, segAt, k = c.seg(s, addr), addr, 0
				}
				if got := seg[k]; got != p.words[w] {
					return addr, got, p.words[w], true
				}
			}
		}
	}
	return 0, 0, 0, false
}
