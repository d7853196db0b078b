package smc

import (
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
)

// TestPlannerMatchesMap checks the planner's unit stepping against the
// reference translation: for every stride, scheme and line size, with
// streams long enough to cross interleave units, pages and stripes, each
// group's location and word offsets are exactly what Mapper.Map gives
// its elements, the groups tile the stream in order, and no two
// consecutive groups share a packet. One planner is reused across every
// case, as the run scratch reuses it, so a reset that kept the last
// stream's unit would show here too. A six-bank geometry exercises the
// mapper's non-power-of-two arithmetic.
func TestPlannerMatchesMap(t *testing.T) {
	var p planner
	for _, g := range []rdram.Geometry{rdram.DefaultGeometry(), {Banks: 6, PageWords: 128, PagesPerBank: 64}} {
		for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			for _, lineWords := range []int{4, 8} {
				m := addrmap.MustNew(scheme, g, lineWords)
				for _, stride := range []int64{1, 2, 3, 4, 5, 8, 16, 33} {
					for _, base := range []int64{int64(m.StripeWords()) + 3, 0, 5} {
						length := int(3*int64(m.StripeWords())/stride) + 7
						st := stream.Stream{Base: base, Stride: stride, Length: length, Mode: stream.Read}
						p.reset(st, &m)
						checkPlan(t, &p, &m, st)
					}
				}
			}
		}
	}
}

// checkPlan drains p, planning st under m, against Mapper.Map.
func checkPlan(t *testing.T, p *planner, m *addrmap.Mapper, st stream.Stream) {
	t.Helper()
	elem := 0
	var prev addrmap.Loc
	for n := 0; p.more(); n++ {
		g := p.cur
		if g.elo != elem || g.n() < 1 || g.n() > rdram.WordsPerPacket {
			t.Fatalf("%v %v: group %d covers [%d,%d), want it to start at %d", m.Scheme(), st, n, g.elo, g.ehi, elem)
		}
		if n > 0 && g.loc == prev {
			t.Fatalf("%v %v: groups %d and %d share packet %+v", m.Scheme(), st, n-1, n, g.loc)
		}
		for j := range g.n() {
			want := m.Map(st.Addr(g.elo + j))
			if got := (addrmap.Loc{Bank: g.loc.Bank, Row: g.loc.Row, Col: g.loc.Col, Word: int(g.words[j])}); got != want {
				t.Fatalf("%v line %d %v: element %d planned at %+v, Map gives %+v", m.Scheme(), m.LineWords(), st, g.elo+j, got, want)
			}
		}
		if g.loc.Word != 0 {
			t.Fatalf("%v %v: group %d location %+v has a word offset", m.Scheme(), st, n, g.loc)
		}
		prev, elem = g.loc, g.ehi
		p.advance()
	}
	if elem != st.Length {
		t.Fatalf("%v %v: plan ended at element %d of %d", m.Scheme(), st, elem, st.Length)
	}
}
