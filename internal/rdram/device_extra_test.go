package rdram

import (
	"fmt"
	"strings"
	"testing"
)

func TestAccessReadyAtPredictsDo(t *testing.T) {
	// AccessReadyAt is a scheduler hint: for a variety of device states it
	// must match the COL issue time Do actually achieves, and must never
	// mutate state.
	cases := []func(d *Device) (bank, row int){
		// Cold bank.
		func(d *Device) (int, int) { return 0, 0 },
		// Open-page hit.
		func(d *Device) (int, int) { d.Do(0, Request{Bank: 1, Row: 3, Col: 0}); return 1, 3 },
		// Page conflict.
		func(d *Device) (int, int) { d.Do(0, Request{Bank: 2, Row: 0, Col: 0}); return 2, 5 },
		// Closed after auto-precharge (tRC pending).
		func(d *Device) (int, int) {
			d.Do(0, Request{Bank: 3, Row: 0, Col: 0, AutoPrecharge: true})
			return 3, 0
		},
	}
	for i, setup := range cases {
		d := newTestDevice(t)
		bank, row := setup(d)
		at := int64(40)
		predicted := d.AccessReadyAt(bank, row, at)
		res := d.Do(at, Request{Bank: bank, Row: row, Col: 1})
		if res.ColIssue != predicted {
			t.Errorf("case %d: predicted COL at %d, Do achieved %d", i, predicted, res.ColIssue)
		}
	}
}

func TestAccessReadyAtDoesNotMutate(t *testing.T) {
	d := newTestDevice(t)
	d.Do(0, Request{Bank: 0, Row: 0, Col: 0})
	before := d.Stats()
	d.AccessReadyAt(0, 5, 100) // conflict path
	d.AccessReadyAt(4, 0, 100) // cold path
	if d.Stats() != before {
		t.Error("AccessReadyAt changed device state")
	}
	if _, open := d.BankOpenRow(0); !open {
		t.Error("AccessReadyAt closed a bank")
	}
}

func TestActivateBankSpeculative(t *testing.T) {
	d := newTestDevice(t)
	// Speculatively open a row, then access it: page hit, data at the
	// hit latency rather than tRAC.
	act := d.ActivateBank(2, 7, 0)
	if act != 0 {
		t.Errorf("ActivateBank issued at %d, want 0", act)
	}
	res := d.Do(50, Request{Bank: 2, Row: 7, Col: 0})
	if !res.PageHit {
		t.Error("access after speculative activate missed")
	}
	// Re-activating the same row is a no-op.
	if got := d.ActivateBank(2, 7, 60); got != -1 {
		t.Errorf("redundant ActivateBank = %d, want -1", got)
	}
	// Activating a different row precharges first.
	pre := d.Stats().Precharges
	if got := d.ActivateBank(2, 9, 100); got < 100 {
		t.Errorf("conflict ActivateBank = %d", got)
	}
	if d.Stats().Precharges != pre+1 {
		t.Error("conflict activate did not precharge")
	}
}

func TestActivateBankChecksAddress(t *testing.T) {
	d := newTestDevice(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range bank")
		}
	}()
	d.ActivateBank(99, 0, 0)
}

func TestPrechargeBankPanicsOnRange(t *testing.T) {
	d := newTestDevice(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	d.PrechargeBank(-1, 0)
}

func TestNewDevicePanicsOnInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geometry.Banks = 0
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDevice(cfg)
}

func TestConfigAccessor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshInterval = 777
	d := NewDevice(cfg)
	if d.Config().RefreshInterval != 777 || d.Config().Geometry.Banks != 8 {
		t.Error("Config accessor mismatch")
	}
}

func TestPeekPokePanicOnBadWord(t *testing.T) {
	d := newTestDevice(t)
	for _, f := range []func(){
		func() { d.PeekWord(0, 0, 0, 2) },
		func() { d.PokeWord(0, 0, 0, -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for bad word offset")
				}
			}()
			f()
		}()
	}
}

func TestBusUtilizationEmpty(t *testing.T) {
	var s Stats
	if s.BusUtilization() != 0 {
		t.Error("empty utilization should be 0")
	}
	s.DataBusBusy, s.LastDataEnd = 40, 100
	if got := s.BusUtilization(); got != 0.4 {
		t.Errorf("utilization = %v", got)
	}
}

func TestTraceEventString(t *testing.T) {
	ev := TraceEvent{Kind: TraceActivate, Start: 10, End: 14, Bank: 3, Row: 7, Col: -1}
	s := ev.String()
	for _, want := range []string{"ACT", "bank=3", "row=7", "10"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
}

func TestRefreshOnOpenBank(t *testing.T) {
	// A refresh landing on an open bank must precharge it first and leave
	// it closed.
	cfg := DefaultConfig()
	cfg.RefreshInterval = 100
	d := NewDevice(cfg)
	d.Do(0, Request{Bank: 0, Row: 3, Col: 0}) // opens bank 0
	// Advance far enough that bank 0's refresh slot (the first) fires.
	d.Do(500, Request{Bank: 5, Row: 0, Col: 0})
	if _, open := d.BankOpenRow(0); open {
		t.Error("bank 0 should be closed after its refresh")
	}
	if d.Stats().Refreshes == 0 {
		t.Error("no refreshes recorded")
	}
}

// TestPagePanicsOutOfRange checks that Page keeps the device's address
// check: a bank or row outside the geometry panics through checkAddr,
// functional and timing-only devices alike.
func TestPagePanicsOutOfRange(t *testing.T) {
	g := DefaultGeometry()
	for _, timingOnly := range []bool{false, true} {
		for _, c := range []struct{ bank, row int }{
			{-1, 0}, {g.Banks, 0}, {0, -1}, {0, g.PagesPerBank},
		} {
			d := newTestDevice(t)
			d.SetTimingOnly(timingOnly)
			func() {
				defer func() {
					msg, _ := recover().(string)
					want := fmt.Sprintf("rdram: address out of range: bank=%d row=%d col=0", c.bank, c.row)
					if !strings.HasPrefix(msg, want) {
						t.Errorf("timing-only %v: Page(%d, %d) panicked with %q, want prefix %q", timingOnly, c.bank, c.row, msg, want)
					}
				}()
				d.Page(c.bank, c.row)
			}()
		}
	}
}

// TestPageIsTheFunctionalStore checks that Page's words are the device's
// memory: zero on first touch, writes through the slice are what reads
// and PeekWord see, and one page's slice is stable across calls.
func TestPageIsTheFunctionalStore(t *testing.T) {
	d := newTestDevice(t)
	p := d.Page(3, 17)
	if len(p) != DefaultGeometry().PageWords {
		t.Fatalf("page has %d words, want %d", len(p), DefaultGeometry().PageWords)
	}
	for i, v := range p {
		if v != 0 {
			t.Fatalf("fresh page word %d = %#x, want 0", i, v)
		}
	}
	p[9] = 0xabc // column 4, word 1
	if got := d.PeekWord(3, 17, 4, 1); got != 0xabc {
		t.Errorf("PeekWord after a write through Page = %#x", got)
	}
	if res := d.Do(0, Request{Bank: 3, Row: 17, Col: 4}); res.Data[1] != 0xabc {
		t.Errorf("read after a write through Page = %#x", res.Data)
	}
	d.PokeWord(3, 17, 0, 0, 7)
	if q := d.Page(3, 17); &q[0] != &p[0] || q[0] != 7 {
		t.Errorf("Page returned a different slice, or missed PokeWord's store")
	}
}

// TestPageTimingOnlyAllocatesNothing pins SetTimingOnly's contract for
// Page: it returns nil and never allocates the page table.
func TestPageTimingOnlyAllocatesNothing(t *testing.T) {
	d := newTestDevice(t)
	d.SetTimingOnly(true)
	if p := d.Page(0, 0); p != nil {
		t.Errorf("timing-only Page = %d words, want nil", len(p))
	}
	if allocs := testing.AllocsPerRun(100, func() { d.Page(5, 100) }); allocs != 0 {
		t.Errorf("timing-only Page allocated %v times per call", allocs)
	}
	if d.pageTable != nil || d.pages != nil {
		t.Errorf("timing-only Page allocated the page table (%d entries, %d pages)", len(d.pageTable), len(d.pages))
	}
}
