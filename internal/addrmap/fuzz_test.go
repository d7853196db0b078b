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
// trip, Run's contract, and Map's and Run's panic on an address outside
// the device.
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

		// Run: addr's location, then n words at consecutive positions of
		// the same page, and addr+n does not continue them.
		runLoc, n := m.Run(addr)
		if runLoc != loc {
			t.Fatalf("Run(%d) at %+v, Map says %+v", addr, runLoc, loc)
		}
		if n < 1 || addr+int64(n) > capacity {
			t.Fatalf("Run(%d) = %d words, capacity %d", addr, n, capacity)
		}
		for i := 1; i < n; i++ {
			l := m.Map(addr + int64(i))
			if l.Bank != loc.Bank || l.Row != loc.Row || inPage(l) != inPage(loc)+i {
				t.Fatalf("scheme=%v line=%d %+v: word %d of the run from %d is at %+v, run starts at %+v",
					scheme, lineWords, g, i, addr, l, loc)
			}
		}
		if end := addr + int64(n); end < capacity {
			if l := m.Map(end); l.Bank == loc.Bank && l.Row == loc.Row && inPage(l) == inPage(loc)+n {
				t.Fatalf("scheme=%v line=%d %+v: the run from %d stops at %d words, but %d continues it at %+v",
					scheme, lineWords, g, addr, n, end, l)
			}
		}

		for _, bad := range []int64{capacity + addr, -1 - addr} {
			want := fmt.Sprintf("addrmap: address %d out of range [0,%d)", bad, capacity)
			if got := panicValue(func() { m.Map(bad) }); got != want {
				t.Fatalf("Map(%d) panicked with %v, want %q", bad, got, want)
			}
			if got := panicValue(func() { m.Run(bad) }); got != want {
				t.Fatalf("Run(%d) panicked with %v, want %q", bad, got, want)
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
