package engine

import (
	"math/bits"

	"rdramstream/internal/stream"
)

// An Image pages the word address space in units of imagePageWords words:
// page number addr>>imageShift, word addr&imageMask within it.
const (
	imageShift     = 10
	imagePageWords = 1 << imageShift
	imageMask      = imagePageWords - 1
)

// imagePage holds one page of words plus a presence bit per word: a word
// is part of the image only once set has set its bit.
type imagePage struct {
	words   [imagePageWords]uint64
	present [imagePageWords / 64]uint64
}

// get returns the word at addr and whether it is present; addr must lie
// in the page.
// rdlint:hotpath
func (p *imagePage) get(addr int64) (uint64, bool) {
	w := addr & imageMask
	if p.present[w>>6]&(1<<(w&63)) == 0 {
		return 0, false
	}
	return p.words[w], true
}

// set stores v at addr and marks it present; addr must lie in the page.
// rdlint:hotpath
func (p *imagePage) set(addr int64, v uint64) {
	w := addr & imageMask
	p.words[w] = v
	p.present[w>>6] |= 1 << (w & 63)
}

// Image is a sparse word image over the page span of a kernel's streams:
// the golden memory the harness seeds and verifies against, which is also
// the store image the line controllers write from (Lines.Store). A dense
// table covers the span: table[addr>>imageShift - base] is 1 + the index
// of the page in pages, 0 meaning untouched. An Image is reused run after
// run: Reset keeps the table's backing and the pages for the next kernel,
// and the walks over it (Seed, Replay, Mismatch) keep their cursor and
// per-stream state here too, so a run allocates none of it.
type Image struct {
	base  int64        // page number of table[0]
	table []int32      // one entry per page of the kernel's span
	pages []*imagePage // pages[:used] are in the image, the rest spare
	used  int

	cur  Cursor       // Seed's and Mismatch's view of the device
	walk []walkStream // a replay's per-stream place
	in   []float64    // a replay's loaded values, one per read stream
	line []uint64     // the words of the line Lines is writing (see fill)
}

// Reset empties the image and sizes its table to the page span of k's
// streams; a nil k leaves the span empty, so every word reads absent.
func (img *Image) Reset(k *stream.Kernel) {
	// Entries past len(table) are always zero: clearing the live prefix
	// before reslicing keeps that true whichever way the span changes.
	clear(img.table)
	img.used = 0

	var lo, hi int64
	empty := true
	if k != nil {
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
	}
	n := 0
	if !empty {
		img.base = lo >> imageShift
		n = int(hi>>imageShift-img.base) + 1
	}
	if cap(img.table) < n {
		img.table = make([]int32, n)
	}
	img.table = img.table[:n]
}

// Get returns the word at addr and whether it is in the image. Addresses
// outside the span report absent: cacheline and packet writes reach words
// past a stream's ends.
// rdlint:hotpath
func (img *Image) Get(addr int64) (uint64, bool) {
	// page and get spelled out, so that Get inlines into the
	// controllers' per-word store loops.
	slot := uint64(addr>>imageShift - img.base)
	if slot >= uint64(len(img.table)) {
		return 0, false
	}
	i := img.table[slot]
	if i == 0 {
		return 0, false
	}
	p := img.pages[i-1]
	w := addr & imageMask
	if p.present[w>>6]&(1<<(w&63)) == 0 {
		return 0, false
	}
	return p.words[w], true
}

// page returns the image page holding addr, nil when the image has none.
// rdlint:hotpath
func (img *Image) page(addr int64) *imagePage {
	slot := uint64(addr>>imageShift - img.base)
	if slot >= uint64(len(img.table)) {
		return nil
	}
	if i := img.table[slot]; i != 0 {
		return img.pages[i-1]
	}
	return nil
}

// pageFor returns the image page holding addr, adding an empty one when
// the image has none. addr must lie in the span Reset sized.
func (img *Image) pageFor(addr int64) *imagePage {
	slot := addr>>imageShift - img.base
	if i := img.table[slot]; i != 0 {
		return img.pages[i-1]
	}
	if img.used == len(img.pages) {
		img.pages = append(img.pages, new(imagePage))
	}
	// Only presence needs clearing on reuse: a word is never read before
	// set marks it present and writes it.
	p := img.pages[img.used]
	clear(p.present[:])
	img.used++
	img.table[slot] = int32(img.used)
	return p
}

// Range calls f on every word in the image in ascending address order,
// stopping early when f returns false.
func (img *Image) Range(f func(addr int64, v uint64) bool) {
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
				if !f(base+int64(w), p.words[w]) {
					return
				}
			}
		}
	}
}

// lineBuf returns the image's line buffer resized to n words, which the
// line issuer's write fill overwrites line after line. It allocates
// only when a pooled image first meets a line of n words.
func (img *Image) lineBuf(n int) []uint64 {
	if cap(img.line) < n {
		img.line = make([]uint64, n)
	}
	return img.line[:n]
}
