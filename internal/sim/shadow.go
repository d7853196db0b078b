package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
)

// The shadow image pages the word address space in units of
// shadowPageWords words: page number addr>>shadowShift, word
// addr&shadowMask within it.
const (
	shadowShift     = 10
	shadowPageWords = 1 << shadowShift
	shadowMask      = shadowPageWords - 1
)

// shadowPage holds one page of golden words plus a presence bit per word:
// a word is part of the image only once seed has set its bit.
type shadowPage struct {
	words   [shadowPageWords]uint64
	present [shadowPageWords / 64]uint64
}

// shadow is the golden memory image seed writes and verify replays the
// kernel over. It covers the page span of the kernel's streams through a
// dense table: table[addr>>shadowShift - base] is 1 + the index of the
// page in pages, 0 meaning untouched. A shadow is reused run after run
// (it lives in the pooled scratch): reset keeps the table's backing and
// the pages for the next kernel.
type shadow struct {
	base  int64         // page number of table[0]
	table []int32       // one entry per page of the kernel's span
	pages []*shadowPage // pages[:used] are in the image, the rest spare
	used  int
}

// reset empties the image and sizes its table to the page span of k's
// streams.
func (img *shadow) reset(k *stream.Kernel) {
	clear(img.table)
	img.used = 0

	var lo, hi int64
	empty := true
	for _, st := range k.Streams {
		if st.Length <= 0 {
			continue
		}
		a, b := st.Addr(0), st.Addr(st.Length-1)
		if empty {
			lo, hi, empty = a, a, false
		}
		lo, hi = min(lo, a, b), max(hi, a, b)
	}
	n := 0
	if !empty {
		img.base = lo >> shadowShift
		n = int(hi>>shadowShift-img.base) + 1
	}
	if cap(img.table) < n {
		img.table = make([]int32, n)
	}
	img.table = img.table[:n]
}

// page returns the page holding addr, adding it to the image on first
// touch.
func (img *shadow) page(addr int64) *shadowPage {
	slot := addr>>shadowShift - img.base
	if i := img.table[slot]; i != 0 {
		return img.pages[i-1]
	}
	if img.used == len(img.pages) {
		img.pages = append(img.pages, new(shadowPage))
	}
	p := img.pages[img.used]
	// Only presence needs clearing on reuse: a word is never read before
	// seed sets its bit and writes it.
	clear(p.present[:])
	img.used++
	img.table[slot] = int32(img.used)
	return p
}

// load and store are the golden replay's memory: every address the
// kernel touches was seeded, so both are plain indexes into the image.
func (img *shadow) load(addr int64) uint64 {
	return img.pages[img.table[addr>>shadowShift-img.base]-1].words[addr&shadowMask]
}

func (img *shadow) store(addr int64, v uint64) {
	img.pages[img.table[addr>>shadowShift-img.base]-1].words[addr&shadowMask] = v
}

// seed fills every stream element with a deterministic value derived from
// s, through the mapper, recording each value in img. The draw order —
// one rng draw per previously unseen address, in stream then element order
// — is part of the pinned golden results and must never change. rng is
// reseeded here; passing the same generator run after run saves its
// allocation.
func seed(dev *rdram.Device, m *addrmap.Mapper, k *stream.Kernel, s int64, rng *rand.Rand, img *shadow) {
	rng.Seed(s + 1)
	img.reset(k)
	for _, st := range k.Streams {
		for i := 0; i < st.Length; i++ {
			addr := st.Addr(i)
			p := img.page(addr)
			w := addr & shadowMask
			bit := uint64(1) << (w & 63)
			if p.present[w>>6]&bit != 0 {
				continue
			}
			// Keep magnitudes small so float arithmetic is exact and the
			// comparison is bit-precise.
			v := math.Float64bits(float64(rng.Intn(1024)) / 8)
			loc := m.Map(addr)
			dev.PokeWord(loc.Bank, loc.Row, loc.Col, loc.Word, v)
			p.words[w] = v
			p.present[w>>6] |= bit
		}
	}
}

// verify replays the kernel over the seeded image and compares every
// word in it with the device contents, in address order, so a failure
// names the lowest mismatched address.
func verify(dev *rdram.Device, m *addrmap.Mapper, k *stream.Kernel, img *shadow) error {
	k.Replay(img.load, img.store)
	for slot, i := range img.table {
		if i == 0 {
			continue
		}
		p := img.pages[i-1]
		base := (img.base + int64(slot)) << shadowShift
		for wi, set := range p.present {
			for set != 0 {
				w := wi*64 + bits.TrailingZeros64(set)
				set &= set - 1
				addr := base + int64(w)
				loc := m.Map(addr)
				if got, want := dev.PeekWord(loc.Bank, loc.Row, loc.Col, loc.Word), p.words[w]; got != want {
					return fmt.Errorf("sim: functional verification failed: address %d: device %#x, golden %#x", addr, got, want)
				}
			}
		}
	}
	return nil
}
