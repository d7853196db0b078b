package stream

import (
	"fmt"
	"strings"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
)

// Placement chooses how vector base addresses relate to banks — the two
// extremes the paper simulates (§4.2).
type Placement int

const (
	// Aligned places every vector base in the same bank, maximizing bank
	// conflicts when the scheduler switches streams.
	Aligned Placement = iota
	// Staggered places successive vector bases in successive banks,
	// minimizing bank conflicts.
	Staggered
)

func (p Placement) String() string {
	if p == Aligned {
		return "aligned"
	}
	return "staggered"
}

// ParsePlacement resolves a placement name, case-insensitively:
// "staggered" or "aligned".
func ParsePlacement(s string) (Placement, error) {
	switch strings.ToLower(s) {
	case "staggered":
		return Staggered, nil
	case "aligned":
		return Aligned, nil
	}
	return 0, fmt.Errorf("unknown placement %q", s)
}

// Layout assigns base addresses to vectors with the given footprints
// (in words), honoring the paper's modeling assumptions: every vector is
// aligned to a cacheline boundary, and distinct vectors share no DRAM
// pages. Under Aligned placement every base maps to bank 0; under
// Staggered, vector k's base maps to bank k mod Banks (cacheline-granular
// stagger for CLI, page-granular for PI).
func Layout(scheme addrmap.Scheme, g rdram.Geometry, lineWords int, footprints []int64, placement Placement) ([]int64, error) {
	if lineWords <= 0 || g.PageWords%lineWords != 0 {
		return nil, fmt.Errorf("stream: invalid cacheline size %d for page %d", lineWords, g.PageWords)
	}
	// Rounding regions to a full bank rotation of pages guarantees no two
	// vectors share a (bank,row) page under either interleaving scheme.
	group := int64(g.Banks) * int64(g.PageWords)
	var unit int64
	switch scheme {
	case addrmap.CLI:
		unit = int64(lineWords)
	case addrmap.PI:
		unit = int64(g.PageWords)
	default:
		return nil, fmt.Errorf("stream: unknown scheme %v", scheme)
	}

	bases := make([]int64, len(footprints))
	next := int64(0)
	for k, fp := range footprints {
		if fp <= 0 {
			return nil, fmt.Errorf("stream: vector %d has non-positive footprint %d", k, fp)
		}
		var offset int64
		if placement == Staggered {
			// Spread vector bases evenly around the bank rotation, so that
			// stream k's line/page i and stream k+1's line/page i-1 (which
			// the natural order touches back-to-back) sit in banks far
			// apart and reuse of a bank is separated by several rounds.
			offset = int64(k*g.Banks/len(footprints)%g.Banks) * unit
		}
		bases[k] = next + offset
		extent := offset + fp
		regions := (extent + group - 1) / group
		next += regions * group
	}
	capacity := int64(g.Banks) * int64(g.PagesPerBank) * int64(g.PageWords)
	if next > capacity {
		return nil, fmt.Errorf("stream: layout needs %d words, device holds %d", next, capacity)
	}
	return bases, nil
}

// MustLayout is Layout for statically known configurations.
func MustLayout(scheme addrmap.Scheme, g rdram.Geometry, lineWords int, footprints []int64, placement Placement) []int64 {
	b, err := Layout(scheme, g, lineWords, footprints, placement)
	if err != nil {
		panic(err)
	}
	return b
}
