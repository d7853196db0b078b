package stream

import (
	"strings"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
)

func TestLayoutAlignedMapsToBankZero(t *testing.T) {
	g := rdram.DefaultGeometry()
	for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
		m := addrmap.MustNew(scheme, g, 4)
		bases := MustLayout(scheme, g, 4, []int64{1024, 1024, 1035}, Aligned)
		for k, b := range bases {
			if loc := m.Map(b); loc.Bank != 0 {
				t.Errorf("%v: vector %d base %d in bank %d, want 0", scheme, k, b, loc.Bank)
			}
		}
	}
}

func TestLayoutStaggeredMapsToDistinctBanks(t *testing.T) {
	g := rdram.DefaultGeometry()
	for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
		m := addrmap.MustNew(scheme, g, 4)
		// Four vectors spread evenly over eight banks: 0, 2, 4, 6.
		bases := MustLayout(scheme, g, 4, []int64{1024, 1024, 1024, 1024}, Staggered)
		for k, b := range bases {
			if loc := m.Map(b); loc.Bank != 2*k {
				t.Errorf("%v: vector %d base %d in bank %d, want %d", scheme, k, b, loc.Bank, 2*k)
			}
		}
		// Eight vectors land in eight distinct banks.
		fps := make([]int64, 8)
		for i := range fps {
			fps[i] = 1024
		}
		bases = MustLayout(scheme, g, 4, fps, Staggered)
		for k, b := range bases {
			if loc := m.Map(b); loc.Bank != k {
				t.Errorf("%v: vector %d of 8 base %d in bank %d, want %d", scheme, k, b, loc.Bank, k)
			}
		}
	}
}

func TestLayoutVectorsShareNoPages(t *testing.T) {
	g := rdram.DefaultGeometry()
	g.PagesPerBank = 64
	type page struct{ bank, row int }
	for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
		for _, placement := range []Placement{Aligned, Staggered} {
			m := addrmap.MustNew(scheme, g, 4)
			fps := []int64{300, 711, 1024}
			bases := MustLayout(scheme, g, 4, fps, placement)
			owner := make(map[page]int)
			for k, b := range bases {
				for off := int64(0); off < fps[k]; off++ {
					loc := m.Map(b + off)
					p := page{loc.Bank, loc.Row}
					if prev, ok := owner[p]; ok && prev != k {
						t.Fatalf("%v/%v: vectors %d and %d share page %+v", scheme, placement, prev, k, p)
					}
					owner[p] = k
				}
			}
		}
	}
}

func TestLayoutErrors(t *testing.T) {
	g := rdram.DefaultGeometry()
	if _, err := Layout(addrmap.CLI, g, 3, []int64{10}, Aligned); err == nil {
		t.Error("expected error for bad line size")
	}
	if _, err := Layout(addrmap.Scheme(9), g, 4, []int64{10}, Aligned); err == nil {
		t.Error("expected error for unknown scheme")
	}
	if _, err := Layout(addrmap.CLI, g, 4, []int64{0}, Aligned); err == nil {
		t.Error("expected error for empty footprint")
	}
	small := g
	small.PagesPerBank = 1
	if _, err := Layout(addrmap.CLI, small, 4, []int64{1 << 20}, Aligned); err == nil {
		t.Error("expected capacity error")
	}
}

func TestMustLayoutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustLayout(addrmap.CLI, rdram.DefaultGeometry(), 3, []int64{1}, Aligned)
}

func TestPlacementString(t *testing.T) {
	if Aligned.String() != "aligned" || Staggered.String() != "staggered" {
		t.Error("placement strings wrong")
	}
}

// TestParsePlacement pins -placement's spellings: each Placement's
// String form parses back to it, every alias is accepted in any case,
// and anything else is an error naming the input.
func TestParsePlacement(t *testing.T) {
	for _, p := range []Placement{Aligned, Staggered} {
		if got, err := ParsePlacement(p.String()); err != nil || got != p {
			t.Errorf("ParsePlacement(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, tc := range []struct {
		in   string
		want Placement
	}{
		{"staggered", Staggered},
		{"Staggered", Staggered},
		{"aligned", Aligned},
		{"Aligned", Aligned},
	} {
		for _, in := range []string{tc.in, strings.ToUpper(tc.in), strings.ToLower(tc.in)} {
			if got, err := ParsePlacement(in); err != nil || got != tc.want {
				t.Errorf("ParsePlacement(%q) = %v, %v; want %v", in, got, err, tc.want)
			}
		}
	}
	for _, in := range []string{"bogus", "", "stagger", "align"} {
		_, err := ParsePlacement(in)
		if want := `unknown placement "` + in + `"`; err == nil || err.Error() != want {
			t.Errorf("ParsePlacement(%q) error = %v, want %q", in, err, want)
		}
	}
}
