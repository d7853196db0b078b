package addrmap

import (
	"fmt"
	"testing"

	"rdramstream/internal/rdram"
)

// fuzzGeometry picks one of 18 geometries from raw: 8, 6 or 16 banks,
// 128-, 64- or 256-word pages, on one device or split over two.
func fuzzGeometry(raw uint8) rdram.Geometry {
	return rdram.Geometry{
		Banks:            []int{8, 6, 16}[raw%3],
		PageWords:        []int{128, 64, 256}[raw/3%3],
		PagesPerBank:     64,
		DevicesOnChannel: []int{0, 2}[raw/9%2],
	}
}

// inPage is a location's word index within its page.
func inPage(loc Loc) int { return loc.Col*rdram.WordsPerPacket + loc.Word }

// FuzzMapUnmap fuzzes the address translation for both schemes over a
// range of geometries (run with `go test -fuzz=FuzzMapUnmap`; the seed
// corpus runs in every ordinary test invocation): the Map/Unmap round
// trip, the stripe view's agreement with Map, that a stripe holds exactly
// one row of every bank, and Map's and Stripe's panic on an address
// outside the device.
func FuzzMapUnmap(f *testing.F) {
	f.Add(int64(0), uint8(0), uint8(3), uint8(0))
	f.Add(int64(12345), uint8(1), uint8(4), uint8(0))
	f.Add(int64(1<<30), uint8(0), uint8(5), uint8(0))
	f.Add(int64(4097), uint8(0), uint8(1), uint8(1))   // 6 banks
	f.Add(int64(777), uint8(1), uint8(2), uint8(13))   // 16 banks, 64-word pages, 2 devices
	f.Add(int64(-99999), uint8(1), uint8(5), uint8(8)) // 256-word pages, 6 banks
	f.Fuzz(func(t *testing.T, raw int64, schemeRaw, lineShift, geomRaw uint8) {
		scheme := CLI
		if schemeRaw%2 == 1 {
			scheme = PI
		}
		lineWords := 2 << (lineShift % 6) // 2..64, always a packet multiple
		g := fuzzGeometry(geomRaw)
		if g.PageWords%lineWords != 0 {
			t.Skip()
		}
		m, err := New(scheme, g, lineWords)
		if err != nil {
			t.Fatalf("%+v line %d: %v", g, lineWords, err)
		}
		capacity := m.CapacityWords()
		addr := raw % capacity
		if addr < 0 {
			addr = -addr
		}
		loc := m.Map(addr)
		if back := m.Unmap(loc); back != addr {
			t.Fatalf("scheme=%v line=%d %+v: Unmap(Map(%d)) = %d", scheme, lineWords, g, addr, back)
		}
		if loc.Bank < 0 || loc.Bank >= g.Banks || loc.Row < 0 || loc.Row >= g.PagesPerBank {
			t.Fatalf("out-of-range location %+v", loc)
		}

		// The stripe view: addr's stripe is its row, and the offset's bank
		// and in-page word are Map's.
		row, off := m.Stripe(addr)
		sw := int64(m.StripeWords())
		if sw != int64(g.Banks*g.PageWords) || off < 0 || int64(off) >= sw || int64(row)*sw+int64(off) != addr {
			t.Fatalf("scheme=%v line=%d %+v: Stripe(%d) = row %d offset %d, stripe %d words", scheme, lineWords, g, addr, row, off, sw)
		}
		bank, w, n := m.InStripe(off)
		if row != loc.Row || bank != loc.Bank || w != inPage(loc) {
			t.Fatalf("scheme=%v line=%d %+v: stripe view of %d is row %d bank %d word %d, Map says %+v",
				scheme, lineWords, g, addr, row, bank, w, loc)
		}
		// The n words of off's interleave unit continue it in its page,
		// and the word after them does not.
		if n < 1 || int64(off+n) > sw {
			t.Fatalf("scheme=%v line=%d %+v: InStripe(%d) gives a unit of %d words", scheme, lineWords, g, off, n)
		}
		for i := 1; i <= n; i++ {
			if off+i == int(sw) {
				break
			}
			l := m.Map(addr + int64(i))
			if cont := l.Bank == bank && inPage(l) == w+i; cont != (i < n) {
				t.Fatalf("scheme=%v line=%d %+v: word %d after %d is at %+v; unit from %d is %d words",
					scheme, lineWords, g, i, addr, l, addr, n)
			}
		}
		// Stripe row holds exactly row row of every bank: each (bank,
		// in-page word) of the row maps back into the stripe, once, at the
		// offset the stripe view gives it.
		seen := make([]bool, sw)
		for bank := 0; bank < g.Banks; bank++ {
			for w := 0; w < g.PageWords; w++ {
				a := m.Unmap(Loc{Bank: bank, Row: row, Col: w / rdram.WordsPerPacket, Word: w % rdram.WordsPerPacket})
				o := a - int64(row)*sw
				if o < 0 || o >= sw || seen[o] {
					t.Fatalf("scheme=%v line=%d %+v: bank %d row %d word %d is address %d, outside stripe %d or twice in it",
						scheme, lineWords, g, bank, row, w, a, row)
				}
				seen[o] = true
				if b2, w2, _ := m.InStripe(int(o)); b2 != bank || w2 != w {
					t.Fatalf("scheme=%v line=%d %+v: InStripe(%d) = bank %d word %d, want bank %d word %d",
						scheme, lineWords, g, o, b2, w2, bank, w)
				}
			}
		}

		for _, bad := range []int64{capacity + addr, -1 - addr} {
			want := fmt.Sprintf("addrmap: address %d out of range [0,%d)", bad, capacity)
			if got := panicValue(func() { m.Map(bad) }); got != want {
				t.Fatalf("Map(%d) panicked with %v, want %q", bad, got, want)
			}
			if got := panicValue(func() { m.Stripe(bad) }); got != want {
				t.Fatalf("Stripe(%d) panicked with %v, want %q", bad, got, want)
			}
		}
	})
}

// panicValue runs f and returns what it panicked with, nil if it did not.
func panicValue(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}
