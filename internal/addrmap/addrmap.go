// Package addrmap translates flat 64-bit-word addresses into Direct RDRAM
// (bank, row, column) coordinates under the two interleaving schemes the
// paper evaluates:
//
//   - CLI (cacheline interleaving): successive cachelines reside in
//     different RDRAM banks. Paired with a closed-page policy.
//   - PI (page interleaving): a whole RDRAM page's worth of contiguous
//     addresses maps to a single bank, and crossing a page boundary
//     switches banks. Paired with an open-page policy.
package addrmap

import (
	"errors"
	"fmt"
	"strings"

	"rdramstream/internal/rdram"
)

// Scheme selects the interleaving.
type Scheme int

// The two memory organizations of the paper (§4).
const (
	CLI Scheme = iota // cacheline interleaving, closed-page
	PI                // page interleaving, open-page
)

// ErrUnknownScheme is returned (wrapped, with the offending value) whenever
// a scheme outside {CLI, PI} reaches the API: ParseScheme, Validate, New.
// CLIs match it with errors.Is and exit non-zero instead of panicking.
var ErrUnknownScheme = errors.New("addrmap: unknown scheme")

func (s Scheme) String() string {
	switch s {
	case CLI:
		return "CLI"
	case PI:
		return "PI"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Validate reports whether the scheme is one of the two the paper defines.
func (s Scheme) Validate() error {
	if s != CLI && s != PI {
		return fmt.Errorf("%w %d (want CLI or PI)", ErrUnknownScheme, int(s))
	}
	return nil
}

// ParseScheme resolves a scheme name (case-insensitive "CLI" or "PI") —
// the single flag-parsing path both CLIs use.
func ParseScheme(name string) (Scheme, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "CLI":
		return CLI, nil
	case "PI":
		return PI, nil
	default:
		return 0, fmt.Errorf("%w %q (want CLI or PI)", ErrUnknownScheme, name)
	}
}

// Loc is a device coordinate: bank, row (page), column packet within the
// page, and 64-bit word within the packet.
type Loc struct {
	Bank, Row, Col, Word int
}

// Mapper converts word addresses to device coordinates and back.
type Mapper struct {
	scheme       Scheme
	banks        int
	pageWords    int
	lineWords    int
	pagesPerBank int
	linesPerPage int
}

// New builds a mapper for the given scheme over the device geometry.
// lineWords is the cacheline size in 64-bit words (the paper's L_c); it is
// required for CLI and must divide the page size. The paper's modeling
// assumptions (§4.1) require the cacheline to be a whole number of packets
// and the page a whole number of cachelines.
func New(scheme Scheme, g rdram.Geometry, lineWords int) (*Mapper, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := scheme.Validate(); err != nil {
		return nil, err
	}
	if lineWords <= 0 || lineWords%rdram.WordsPerPacket != 0 {
		return nil, fmt.Errorf("addrmap: lineWords must be a positive multiple of %d, got %d", rdram.WordsPerPacket, lineWords)
	}
	if g.PageWords%lineWords != 0 {
		return nil, fmt.Errorf("addrmap: page size %d words is not a multiple of the cacheline %d", g.PageWords, lineWords)
	}
	return &Mapper{
		scheme:       scheme,
		banks:        g.Banks,
		pageWords:    g.PageWords,
		lineWords:    lineWords,
		pagesPerBank: g.PagesPerBank,
		linesPerPage: g.PageWords / lineWords,
	}, nil
}

// MustNew is New for configurations known statically; it panics on error.
func MustNew(scheme Scheme, g rdram.Geometry, lineWords int) *Mapper {
	m, err := New(scheme, g, lineWords)
	if err != nil {
		panic(err)
	}
	return m
}

// Scheme returns the interleaving scheme.
func (m *Mapper) Scheme() Scheme { return m.scheme }

// LineWords returns the cacheline size in 64-bit words (L_c).
func (m *Mapper) LineWords() int { return m.lineWords }

// PageWords returns the page size in 64-bit words (L_P).
func (m *Mapper) PageWords() int { return m.pageWords }

// Banks returns the bank count.
func (m *Mapper) Banks() int { return m.banks }

// CapacityWords is the highest mappable word address plus one.
func (m *Mapper) CapacityWords() int64 {
	return int64(m.banks) * int64(m.pagesPerBank) * int64(m.pageWords)
}

// Map converts a word address to its device location.
func (m *Mapper) Map(addr int64) Loc {
	loc, _ := m.Run(addr)
	return loc
}

// Run converts a word address to its device location like Map, and also
// returns n >= 1, the length of the run that starts at addr: the words
// addr, addr+1, ..., addr+n-1 sit at consecutive word positions of one
// device page (same bank and row), and addr+n does not continue them.
// Under CLI a run is the rest of addr's cacheline, under PI the rest of
// its page. Walks over contiguous words map once per run instead of once
// per word.
// rdlint:hotpath
func (m *Mapper) Run(addr int64) (Loc, int) {
	if addr < 0 || addr >= m.CapacityWords() {
		panic(fmt.Sprintf("addrmap: address %d out of range [0,%d)", addr, m.CapacityWords()))
	}
	var loc Loc
	var inPage, n int
	switch m.scheme {
	case CLI:
		line := addr / int64(m.lineWords)
		inLine := int(addr % int64(m.lineWords))
		loc.Bank = int(line % int64(m.banks))
		bankLine := line / int64(m.banks)
		loc.Row = int(bankLine / int64(m.linesPerPage))
		inPage = int(bankLine%int64(m.linesPerPage))*m.lineWords + inLine
		n = m.lineWords - inLine
	case PI:
		page := addr / int64(m.pageWords)
		inPage = int(addr % int64(m.pageWords))
		loc.Bank = int(page % int64(m.banks))
		loc.Row = int(page / int64(m.banks))
		n = m.pageWords - inPage
	}
	loc.Col = inPage / rdram.WordsPerPacket
	loc.Word = inPage % rdram.WordsPerPacket
	return loc, n
}

// Unmap is the inverse of Map. New rejects schemes outside {CLI, PI}, so
// every constructed mapper takes one of these branches.
func (m *Mapper) Unmap(loc Loc) int64 {
	inPage := loc.Col*rdram.WordsPerPacket + loc.Word
	if m.scheme == PI {
		page := int64(loc.Row)*int64(m.banks) + int64(loc.Bank)
		return page*int64(m.pageWords) + int64(inPage)
	}
	lineInPage := inPage / m.lineWords
	inLine := inPage % m.lineWords
	bankLine := int64(loc.Row)*int64(m.linesPerPage) + int64(lineInPage)
	line := bankLine*int64(m.banks) + int64(loc.Bank)
	return line*int64(m.lineWords) + int64(inLine)
}

// PacketAddr returns the word address of the first word in addr's packet.
// Direct RDRAM's smallest addressable unit is one 128-bit packet, so every
// transfer moves a whole aligned packet.
func PacketAddr(addr int64) int64 {
	return addr &^ int64(rdram.WordsPerPacket-1)
}
