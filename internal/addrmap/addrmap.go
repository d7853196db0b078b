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
	"math/bits"
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
//
// Under both schemes row r of every bank holds exactly the Banks ×
// PageWords consecutive addresses from r·Banks·PageWords: the stripe. The
// stripe view (Stripe, InStripe) maps an address to its stripe and offset,
// and an offset to its bank and in-page word, so a walk over contiguous
// addresses maps once per stripe and finds each word by index arithmetic.
type Mapper struct {
	scheme       Scheme
	banks        int
	pageWords    int
	lineWords    int
	pagesPerBank int
	linesPerPage int
	stripeWords  int // banks × pageWords
	// unit is the interleave unit the stripe is dealt to the banks in:
	// the cacheline under CLI, the whole page under PI.
	unit int

	// pow2 says banks, pageWords and lineWords are all powers of two,
	// and the stripe view shifts and masks by the logs below instead of
	// dividing.
	pow2                              bool
	stripeShift, bankShift, unitShift uint
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
	m := &Mapper{
		scheme:       scheme,
		banks:        g.Banks,
		pageWords:    g.PageWords,
		lineWords:    lineWords,
		pagesPerBank: g.PagesPerBank,
		linesPerPage: g.PageWords / lineWords,
		stripeWords:  g.Banks * g.PageWords,
		unit:         lineWords,
	}
	if scheme == PI {
		m.unit = g.PageWords
	}
	if isPow2(g.Banks) && isPow2(g.PageWords) && isPow2(lineWords) {
		m.pow2 = true
		m.stripeShift = uint(bits.TrailingZeros(uint(m.stripeWords)))
		m.bankShift = uint(bits.TrailingZeros(uint(g.Banks)))
		m.unitShift = uint(bits.TrailingZeros(uint(m.unit)))
	}
	return m, nil
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

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

// StripeWords returns the words of one stripe, Banks × PageWords.
func (m *Mapper) StripeWords() int { return m.stripeWords }

// Map converts a word address to its device location.
func (m *Mapper) Map(addr int64) Loc {
	m.check(addr)
	var loc Loc
	var inPage int
	switch m.scheme {
	case CLI:
		line := addr / int64(m.lineWords)
		loc.Bank = int(line % int64(m.banks))
		bankLine := line / int64(m.banks)
		loc.Row = int(bankLine / int64(m.linesPerPage))
		inPage = int(bankLine%int64(m.linesPerPage))*m.lineWords + int(addr%int64(m.lineWords))
	case PI:
		page := addr / int64(m.pageWords)
		inPage = int(addr % int64(m.pageWords))
		loc.Bank = int(page % int64(m.banks))
		loc.Row = int(page / int64(m.banks))
	}
	loc.Col = inPage / rdram.WordsPerPacket
	loc.Word = inPage % rdram.WordsPerPacket
	return loc
}

// Stripe returns the stripe addr lies in, which is also its row in every
// bank, and addr's offset within the stripe.
// rdlint:hotpath
func (m *Mapper) Stripe(addr int64) (row, off int) {
	m.check(addr)
	if m.pow2 {
		return int(addr >> (m.stripeShift & 63)), int(addr & int64(m.stripeWords-1))
	}
	return int(addr / int64(m.stripeWords)), int(addr % int64(m.stripeWords))
}

// InStripe returns the bank and in-page word of stripe offset off, for
// 0 <= off < StripeWords, and n >= 1, the words from off to the end of
// its interleave unit: offsets off, ..., off+n-1 sit at consecutive words
// of the same page. The stripe deals its units to the banks in turn —
// cachelines under CLI, whole pages under PI — so one formula serves both
// schemes.
// rdlint:hotpath
func (m *Mapper) InStripe(off int) (bank, word, n int) {
	if m.pow2 {
		u, in := off>>(m.unitShift&63), off&(m.unit-1)
		return u & (m.banks - 1), (u>>(m.bankShift&63))<<(m.unitShift&63) | in, m.unit - in
	}
	u, in := off/m.unit, off%m.unit
	return u % m.banks, u/m.banks*m.unit + in, m.unit - in
}

// check panics on an address outside the device.
func (m *Mapper) check(addr int64) {
	if addr < 0 || addr >= m.CapacityWords() {
		panic(fmt.Sprintf("addrmap: address %d out of range [0,%d)", addr, m.CapacityWords()))
	}
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
