package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
)

// TestCursorLocMatchesMap checks the arithmetic Cursor.Loc against
// Mapper.Map, the reference translation, over FuzzMapUnmap's geometries
// (6-bank ones included, whose stripe view divides instead of shifting)
// and every line size their pages allow: a sweep across more stripes
// than a Cursor holds, a walk that alternates between far-apart stripes,
// and random addresses over the whole device. Out-of-range addresses must
// panic with Map's message.
func TestCursorLocMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, g := range stripeGeometries() {
		for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			for lw := 2; lw <= 16; lw *= 2 {
				if g.PageWords%lw != 0 {
					continue
				}
				m := addrmap.MustNew(scheme, g, lw)
				cur := NewCursor(rdram.NewDevice(rdram.Config{Timing: rdram.DefaultTiming(), Geometry: g}), &m)
				name := fmt.Sprintf("%d banks × %d words %v line %d", g.Banks, g.PageWords, scheme, lw)
				stripe, capacity := int64(m.StripeWords()), m.CapacityWords()
				var addrs []int64
				for a := int64(0); a < 10*stripe+7; a += 3 {
					addrs = append(addrs, a)
				}
				for i := int64(0); i < 64; i++ {
					addrs = append(addrs, (i%11)*stripe+i, capacity-1-i*stripe)
				}
				for i := 0; i < 2000; i++ {
					addrs = append(addrs, r.Int63n(capacity))
				}
				for _, a := range addrs {
					if got, want := cur.Loc(a), m.Map(a); got != want {
						t.Fatalf("%s: Loc(%d) = %+v, Map = %+v", name, a, got, want)
					}
				}
				for _, a := range []int64{-1, capacity, capacity + stripe, -stripe} {
					if got, want := panicText(func() { cur.Loc(a) }), panicText(func() { m.Map(a) }); got != want || want == "" {
						t.Errorf("%s: Loc(%d) panics %q, Map panics %q", name, a, got, want)
					}
				}
			}
		}
	}
}

// panicText runs f and returns the text of its panic, "" if none.
func panicText(f func()) (s string) {
	defer func() {
		if v := recover(); v != nil {
			s = fmt.Sprint(v)
		}
	}()
	f()
	return ""
}
