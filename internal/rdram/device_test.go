package rdram

import (
	"math/rand"
	"strings"
	"testing"
)

func newTestDevice(t testing.TB) *Device {
	t.Helper()
	return NewDevice(DefaultConfig())
}

func TestColdReadCostsTRAC(t *testing.T) {
	d := newTestDevice(t)
	res := d.Do(0, Request{Bank: 0, Row: 0, Col: 0})
	if res.PageHit {
		t.Error("cold read reported a page hit")
	}
	if res.ActIssue != 0 {
		t.Errorf("ActIssue = %d, want 0", res.ActIssue)
	}
	if res.ColIssue != int64(d.cfg.Timing.TRCD) {
		t.Errorf("ColIssue = %d, want TRCD = %d", res.ColIssue, d.cfg.Timing.TRCD)
	}
	if res.DataStart != int64(d.cfg.Timing.TRAC()) {
		t.Errorf("DataStart = %d, want TRAC = %d", res.DataStart, d.cfg.Timing.TRAC())
	}
	if res.DataEnd != res.DataStart+int64(d.cfg.Timing.TPack) {
		t.Errorf("DataEnd = %d, want DataStart+TPack", res.DataEnd)
	}
}

func TestOpenPageStreamSaturatesDataBus(t *testing.T) {
	// Consecutive page hits must deliver back-to-back DATA packets: the
	// open-page stream case transfers at the device's full 1.6 GB/s.
	d := newTestDevice(t)
	var prevEnd int64
	for col := 0; col < 16; col++ {
		res := d.Do(0, Request{Bank: 0, Row: 0, Col: col})
		if col > 0 {
			if !res.PageHit {
				t.Fatalf("col %d: expected page hit", col)
			}
			if res.DataStart != prevEnd {
				t.Fatalf("col %d: DataStart = %d, want contiguous %d", col, res.DataStart, prevEnd)
			}
		}
		prevEnd = res.DataEnd
	}
	st := d.Stats()
	if st.PageHits != 15 || st.PageMisses != 1 {
		t.Errorf("hits/misses = %d/%d, want 15/1", st.PageHits, st.PageMisses)
	}
}

func TestPageConflictPrechargesThenActivates(t *testing.T) {
	d := newTestDevice(t)
	d.Do(0, Request{Bank: 0, Row: 0, Col: 0})
	res := d.Do(0, Request{Bank: 0, Row: 1, Col: 0})
	if res.PageHit {
		t.Fatal("conflicting access reported a page hit")
	}
	if res.PreIssue < 0 || res.ActIssue < 0 {
		t.Fatalf("expected precharge and activate, got pre=%d act=%d", res.PreIssue, res.ActIssue)
	}
	tm := d.cfg.Timing
	if res.ActIssue < res.PreIssue+int64(tm.TRP) {
		t.Errorf("ACT at %d violates TRP after PRER at %d", res.ActIssue, res.PreIssue)
	}
	// The row must stay open at least TRAS before the precharge.
	if res.PreIssue < int64(tm.TRAS()) {
		t.Errorf("PRER at %d violates TRAS = %d", res.PreIssue, tm.TRAS())
	}
	if d.Stats().PageConflicts != 1 {
		t.Errorf("PageConflicts = %d, want 1", d.Stats().PageConflicts)
	}
}

func TestTRRBetweenActivatesOnDifferentBanks(t *testing.T) {
	d := newTestDevice(t)
	r0 := d.Do(0, Request{Bank: 0, Row: 0, Col: 0})
	r1 := d.Do(0, Request{Bank: 1, Row: 0, Col: 0})
	if got := r1.ActIssue - r0.ActIssue; got != int64(d.cfg.Timing.TRR) {
		t.Errorf("ACT separation = %d, want TRR = %d", got, d.cfg.Timing.TRR)
	}
}

func TestTRCBetweenActivatesOnSameBank(t *testing.T) {
	d := newTestDevice(t)
	r0 := d.Do(0, Request{Bank: 0, Row: 0, Col: 0, AutoPrecharge: true})
	r1 := d.Do(0, Request{Bank: 0, Row: 0, Col: 1, AutoPrecharge: true})
	if got := r1.ActIssue - r0.ActIssue; got < int64(d.cfg.Timing.TRC) {
		t.Errorf("same-bank ACT separation = %d, want >= TRC = %d", got, d.cfg.Timing.TRC)
	}
	if r1.PageHit {
		t.Error("access after auto-precharge reported a page hit")
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	d := newTestDevice(t)
	w := d.Do(0, Request{Bank: 0, Row: 0, Col: 0, Write: true, Data: [2]uint64{1, 2}})
	r := d.Do(0, Request{Bank: 0, Row: 0, Col: 1})
	tm := d.cfg.Timing
	if r.DataStart < w.DataEnd+int64(tm.TRW) {
		t.Errorf("read data at %d violates TRW after write data end %d", r.DataStart, w.DataEnd)
	}
	if d.Stats().Retires != 1 {
		t.Errorf("Retires = %d, want 1 (COL RET before the read)", d.Stats().Retires)
	}
}

func TestReadToWriteNeedsNoTurnaround(t *testing.T) {
	d := newTestDevice(t)
	r := d.Do(0, Request{Bank: 0, Row: 0, Col: 0})
	w := d.Do(0, Request{Bank: 0, Row: 0, Col: 1, Write: true})
	// The write DATA packet may start as soon as the bus frees.
	if w.DataStart > r.DataEnd+int64(d.cfg.Timing.TPack) {
		t.Errorf("write data at %d unexpectedly delayed after read data end %d", w.DataStart, r.DataEnd)
	}
	if d.Stats().Retires != 0 {
		t.Errorf("Retires = %d, want 0", d.Stats().Retires)
	}
}

func TestFunctionalWriteThenRead(t *testing.T) {
	d := newTestDevice(t)
	d.Do(0, Request{Bank: 3, Row: 7, Col: 5, Write: true, Data: [2]uint64{0xdead, 0xbeef}})
	res := d.Do(0, Request{Bank: 3, Row: 7, Col: 5})
	if res.Data != [2]uint64{0xdead, 0xbeef} {
		t.Errorf("read back %v, want [dead beef]", res.Data)
	}
	if got := d.PeekWord(3, 7, 5, 1); got != 0xbeef {
		t.Errorf("PeekWord = %#x, want 0xbeef", got)
	}
}

func TestPokePeekRoundTrip(t *testing.T) {
	d := newTestDevice(t)
	d.PokeWord(2, 100, 10, 0, 42)
	if got := d.PeekWord(2, 100, 10, 0); got != 42 {
		t.Errorf("PeekWord = %d, want 42", got)
	}
	// Untouched words read as zero.
	if got := d.PeekWord(2, 100, 10, 1); got != 0 {
		t.Errorf("untouched word = %d, want 0", got)
	}
	res := d.Do(0, Request{Bank: 2, Row: 100, Col: 10})
	if res.Data != [2]uint64{42, 0} {
		t.Errorf("timed read = %v, want [42 0]", res.Data)
	}
}

func TestDoubleBankAdjacencyForcesPrecharge(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geometry.Banks = 16
	cfg.Geometry.DoubleBank = true
	d := NewDevice(cfg)
	d.Do(0, Request{Bank: 0, Row: 0, Col: 0})
	if _, open := d.BankOpenRow(0); !open {
		t.Fatal("bank 0 should be open")
	}
	d.Do(0, Request{Bank: 1, Row: 0, Col: 0})
	if _, open := d.BankOpenRow(0); open {
		t.Error("bank 0 should have been precharged when adjacent bank 1 opened")
	}
	if _, open := d.BankOpenRow(1); !open {
		t.Error("bank 1 should be open")
	}
	// Non-adjacent banks coexist.
	d.Do(0, Request{Bank: 4, Row: 0, Col: 0})
	if _, open := d.BankOpenRow(1); !open {
		t.Error("bank 1 should remain open when bank 4 opened")
	}
}

func TestExplicitPrecharge(t *testing.T) {
	d := newTestDevice(t)
	d.Do(0, Request{Bank: 0, Row: 0, Col: 0})
	if got := d.PrechargeBank(0, 100); got < 0 {
		t.Fatal("PrechargeBank on open bank returned -1")
	}
	if _, open := d.BankOpenRow(0); open {
		t.Error("bank still open after explicit precharge")
	}
	if got := d.PrechargeBank(0, 200); got != -1 {
		t.Errorf("PrechargeBank on closed bank = %d, want -1", got)
	}
}

func TestRefreshInjection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshInterval = 500
	d := NewDevice(cfg)
	now := int64(0)
	for i := 0; i < 100; i++ {
		res := d.Do(now, Request{Bank: i % 8, Row: 0, Col: i % 64})
		now = res.DataEnd
	}
	if d.Stats().Refreshes == 0 {
		t.Error("expected refreshes to be injected over a long run")
	}
}

func TestRefreshDisabledByDefault(t *testing.T) {
	d := newTestDevice(t)
	now := int64(0)
	for i := 0; i < 100; i++ {
		res := d.Do(now, Request{Bank: i % 8, Row: 0, Col: i % 64})
		now = res.DataEnd
	}
	if d.Stats().Refreshes != 0 {
		t.Errorf("Refreshes = %d, want 0 when disabled", d.Stats().Refreshes)
	}
}

func TestAddressRangeChecks(t *testing.T) {
	d := newTestDevice(t)
	cases := []Request{
		{Bank: -1},
		{Bank: 8},
		{Bank: 0, Row: 8192},
		{Bank: 0, Row: 0, Col: 64},
	}
	for i, req := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic for %+v", i, req)
				}
			}()
			d.Do(0, req)
		}()
	}
}

func TestTraceRecorderAndTimeline(t *testing.T) {
	d := newTestDevice(t)
	var rec Recorder
	d.Trace = rec.Hook()
	d.Do(0, Request{Bank: 0, Row: 0, Col: 0})
	d.Do(0, Request{Bank: 1, Row: 0, Col: 0, Write: true})
	d.Do(0, Request{Bank: 1, Row: 0, Col: 1})

	if len(rec.Events) == 0 {
		t.Fatal("no trace events recorded")
	}
	rowEvents := rec.ByBus(0)
	if len(rowEvents) != 2 { // two ACTs
		t.Errorf("row-bus events = %d, want 2", len(rowEvents))
	}
	colEvents := rec.ByBus(1)
	if len(colEvents) != 4 { // RD, WR, RET, RD
		t.Errorf("col-bus events = %d, want 4", len(colEvents))
	}
	dataEvents := rec.ByBus(2)
	if len(dataEvents) != 3 {
		t.Errorf("data-bus events = %d, want 3", len(dataEvents))
	}
	tl := rec.Timeline(2)
	for _, want := range []string{"ROW", "COL", "DATA", "A", "R", "W"} {
		if !strings.Contains(tl, want) {
			t.Errorf("timeline missing %q:\n%s", want, tl)
		}
	}
}

func TestTraceKindStrings(t *testing.T) {
	kinds := map[TraceKind]string{
		TraceActivate:  "ACT",
		TracePrecharge: "PRER",
		TraceReadCol:   "RD",
		TraceWriteCol:  "WR",
		TraceRetire:    "RET",
		TraceReadData:  "DATA<",
		TraceWriteData: "DATA>",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if got := TraceKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind string = %q", got)
	}
}

// TestRandomizedProtocolInvariants drives the device with a pseudo-random
// request mix and checks global protocol invariants: DATA packets never
// overlap, reads always trail writes by the turnaround time, column packets
// respect tRCD, and the functional contents match a shadow memory.
func TestRandomizedProtocolInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	cfg := DefaultConfig()
	cfg.Geometry.PagesPerBank = 8 // keep the shadow small
	d := NewDevice(cfg)
	shadow := make(map[[4]int]uint64)

	type window struct {
		start, end int64
		write      bool
	}
	var dataWindows []window
	now := int64(0)
	for i := 0; i < 2000; i++ {
		req := Request{
			Bank:          rng.Intn(cfg.Geometry.Banks),
			Row:           rng.Intn(cfg.Geometry.PagesPerBank),
			Col:           rng.Intn(cfg.Geometry.PageWords / WordsPerPacket),
			Write:         rng.Intn(3) == 0,
			AutoPrecharge: rng.Intn(4) == 0,
		}
		if req.Write {
			req.Data = [2]uint64{rng.Uint64(), rng.Uint64()}
		}
		res := d.Do(now, req)
		if res.ColIssue < now {
			t.Fatalf("op %d: ColIssue %d before request time %d", i, res.ColIssue, now)
		}
		if res.DataStart < res.ColIssue {
			t.Fatalf("op %d: data before its column packet", i)
		}
		if res.ActIssue >= 0 && res.ColIssue < res.ActIssue+int64(cfg.Timing.TRCD) {
			t.Fatalf("op %d: COL at %d violates tRCD after ACT at %d", i, res.ColIssue, res.ActIssue)
		}
		dataWindows = append(dataWindows, window{res.DataStart, res.DataEnd, req.Write})

		key0 := [4]int{req.Bank, req.Row, req.Col, 0}
		key1 := [4]int{req.Bank, req.Row, req.Col, 1}
		if req.Write {
			shadow[key0], shadow[key1] = req.Data[0], req.Data[1]
		} else if res.Data[0] != shadow[key0] || res.Data[1] != shadow[key1] {
			t.Fatalf("op %d: read %v, shadow has [%d %d]", i, res.Data, shadow[key0], shadow[key1])
		}
		// Occasionally let time advance past the busy window.
		if rng.Intn(8) == 0 {
			now = res.DataEnd + int64(rng.Intn(40))
		}
	}
	for i := 1; i < len(dataWindows); i++ {
		prev, cur := dataWindows[i-1], dataWindows[i]
		if cur.start < prev.end {
			t.Fatalf("data packets %d and %d overlap: [%d,%d) then [%d,%d)", i-1, i, prev.start, prev.end, cur.start, cur.end)
		}
		if !cur.write && prev.write && cur.start < prev.end+int64(cfg.Timing.TRW) {
			t.Fatalf("read data %d violates turnaround after write %d", i, i-1)
		}
	}
	st := d.Stats()
	if st.PageHits+st.PageMisses != 2000 {
		t.Errorf("hits+misses = %d, want 2000", st.PageHits+st.PageMisses)
	}
	if st.PacketCount() != 2000 {
		t.Errorf("PacketCount = %d, want 2000", st.PacketCount())
	}
	if st.BusUtilization() <= 0 || st.BusUtilization() > 1 {
		t.Errorf("BusUtilization = %v out of (0,1]", st.BusUtilization())
	}
}

func TestStatsString(t *testing.T) {
	d := newTestDevice(t)
	d.Do(0, Request{Bank: 0, Row: 0, Col: 0})
	s := d.Stats().String()
	if !strings.Contains(s, "act=1") || !strings.Contains(s, "rd=1") {
		t.Errorf("unexpected stats string: %s", s)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("empty stats should have zero hit rate")
	}
	s.PageHits, s.PageMisses = 3, 1
	if got := s.HitRate(); got != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", got)
	}
}

// BenchmarkDeviceOpenPageRead measures the raw device model: back-to-back
// page-hit packet reads, one packet per op.
func BenchmarkDeviceOpenPageRead(b *testing.B) {
	d := NewDevice(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Do(0, Request{Bank: 0, Row: 0, Col: i % 64})
	}
}

// BenchmarkDeviceOpenPageAttempt measures the SMC's per-packet device
// call: back-to-back page-hit packet reads through the pointer Attempt,
// one packet per op, with the request and result reused in place.
func BenchmarkDeviceOpenPageAttempt(b *testing.B) {
	d := NewDevice(DefaultConfig())
	var req Request
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Col = i % 64
		d.Attempt(0, &req, &res)
	}
}

// BenchmarkDeviceClosedPageLine measures the device's line transaction:
// one 2-packet read line per op under a closed-page policy, so each op
// activates its row, places both packets and precharges behind them,
// the banks taken in turn.
func BenchmarkDeviceClosedPageLine(b *testing.B) {
	d := NewDevice(DefaultConfig())
	req := Request{AutoPrecharge: true}
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Bank, req.Row = i%8, i/8%64
		d.AttemptLine(0, &req, &res, 2, nil, nil)
	}
}
