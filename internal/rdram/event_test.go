package rdram

// Tests for the event-query surface the event-driven core refactor added:
// NextEventAt (the skip-to-next-event oracle), the PagePool (allocation
// reuse across a sweep), and timing-only mode (SkipVerify runs with the
// functional store disabled).

import "testing"

func TestNextEventAtQuiescent(t *testing.T) {
	d := newTestDevice(t)
	if got := d.NextEventAt(0); got != NoEvent {
		t.Errorf("NextEventAt on an untouched device = %d, want NoEvent", got)
	}
}

func TestNextEventAtSeesRefreshTimer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshInterval = 1000
	d := NewDevice(cfg)
	if got := d.NextEventAt(0); got != 1000 {
		t.Errorf("NextEventAt(0) = %d, want the refresh timer at 1000", got)
	}
	// The query is strict (> now): standing exactly on the deadline, the
	// refresh is due now rather than in the future, and it will fire
	// lazily on the next presented access — so no *future* event exists
	// until that access advances the timer.
	if got := d.NextEventAt(1000); got != NoEvent {
		t.Errorf("NextEventAt(1000) = %d, want NoEvent (refresh is due, not pending)", got)
	}
}

// TestNextEventAtChainTerminates walks the event chain after a write (the
// richest state: row/col/data bus, bank timers, and the read-after-write
// turnaround window) and checks it is strictly increasing and finite.
func TestNextEventAtChainTerminates(t *testing.T) {
	d := newTestDevice(t)
	d.Do(0, Request{Bank: 0, Row: 0, Col: 0, Write: true})
	d.Do(0, Request{Bank: 1, Row: 2, Col: 3})
	prev := int64(0)
	steps := 0
	for {
		next := d.NextEventAt(prev)
		if next == NoEvent {
			break
		}
		if next <= prev {
			t.Fatalf("event chain not strictly increasing: %d after %d", next, prev)
		}
		prev = next
		if steps++; steps > 64 {
			t.Fatal("event chain did not terminate")
		}
	}
	if steps == 0 {
		t.Fatal("no events after two accesses")
	}
}

// TestRefreshInsideSkippedSpan pins the catch-up semantics a
// skip-to-next-event controller relies on: when the next access is
// presented far past several refresh deadlines, every elapsed refresh
// still happens (and is charged) before the access is scheduled.
func TestRefreshInsideSkippedSpan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshInterval = 500
	d := NewDevice(cfg)
	d.Do(0, Request{Bank: 0, Row: 0, Col: 0})
	if n := d.Stats().Refreshes; n != 0 {
		t.Fatalf("refreshes before the first deadline = %d, want 0", n)
	}
	// Jump straight over five deadlines (t=500..2500).
	d.Do(2600, Request{Bank: 0, Row: 0, Col: 1})
	if n := d.Stats().Refreshes; n != 5 {
		t.Errorf("refreshes after jumping to 2600 = %d, want 5", n)
	}
	if next := d.NextEventAt(2600); next == NoEvent || next > 3000 {
		t.Errorf("NextEventAt(2600) = %d, want the next refresh deadline at/before 3000", next)
	}
}

func TestPagePoolZeroesReusedPages(t *testing.T) {
	var pool PagePool
	cfg := DefaultConfig()

	d1 := NewDevice(cfg)
	d1.UsePagePool(&pool)
	d1.PokeWord(0, 0, 0, 0, 0xdeadbeef)
	d1.PokeWord(3, 7, 2, 1, 42)
	d1.ReleasePages()
	if len(pool.free) != 2 {
		t.Fatalf("pool holds %d pages after release, want 2", len(pool.free))
	}
	// The page table goes back to the pool with only its touched entries
	// reset: it must be all zero again.
	if len(pool.table) != cfg.Geometry.Pages() {
		t.Fatalf("pool holds a %d-entry page table, want %d", len(pool.table), cfg.Geometry.Pages())
	}
	for id, e := range pool.table {
		if e != 0 {
			t.Fatalf("released page table entry %d = %d, want 0", id, e)
		}
	}
	table := &pool.table[0]

	// A second scenario reusing the pool must see zero-filled memory, the
	// functional store's first-touch promise.
	d2 := NewDevice(cfg)
	d2.UsePagePool(&pool)
	if v := d2.PeekWord(0, 0, 0, 0); v != 0 {
		t.Errorf("reused page leaked value %#x", v)
	}
	if len(pool.free) != 1 {
		t.Errorf("pool holds %d pages after one reuse, want 1", len(pool.free))
	}
	if &d2.pageTable[0] != table || pool.table != nil {
		t.Errorf("second device did not take over the pooled page table")
	}
}

func TestPagePoolDropsWrongSizePages(t *testing.T) {
	var pool PagePool
	pool.put(make([]uint64, 16)) // stale page from an old geometry
	cfg := DefaultConfig()
	pg := pool.get(cfg.Geometry.PageWords)
	if len(pg) != cfg.Geometry.PageWords {
		t.Fatalf("got %d-word page, want %d", len(pg), cfg.Geometry.PageWords)
	}
	if len(pool.free) != 0 {
		t.Errorf("stale page still pooled")
	}
}

// TestTimingOnlyCycleIdentical runs the same access sequence against a
// functional and a timing-only device: every scheduled packet time and
// every counter must match, because data values never influence timing.
func TestTimingOnlyCycleIdentical(t *testing.T) {
	full := newTestDevice(t)
	bare := newTestDevice(t)
	bare.SetTimingOnly(true)

	reqs := []struct {
		at  int64
		req Request
	}{
		{0, Request{Bank: 0, Row: 0, Col: 0, Write: true, Data: [WordsPerPacket]uint64{1, 2}}},
		{0, Request{Bank: 0, Row: 0, Col: 1}},
		{10, Request{Bank: 1, Row: 4, Col: 0, Write: true, Data: [WordsPerPacket]uint64{3, 4}}},
		{10, Request{Bank: 0, Row: 9, Col: 0}}, // page conflict
		{2000, Request{Bank: 1, Row: 4, Col: 0}},
	}
	for i, r := range reqs {
		a := full.Do(r.at, r.req)
		b := bare.Do(r.at, r.req)
		a.Data, b.Data = [WordsPerPacket]uint64{}, [WordsPerPacket]uint64{}
		if a != b {
			t.Errorf("access %d: timing diverged: full %+v, timing-only %+v", i, a, b)
		}
	}
	if full.Stats() != bare.Stats() {
		t.Errorf("stats diverged: full %+v, timing-only %+v", full.Stats(), bare.Stats())
	}
	// The timing-only device allocated no page storage and reads zeros.
	if v := bare.PeekWord(1, 4, 0, 0); v != 0 {
		t.Errorf("timing-only PeekWord = %#x, want 0", v)
	}
	if got := full.PeekWord(1, 4, 0, 0); got != 3 {
		t.Errorf("functional PeekWord = %d, want 3", got)
	}
	if bare.pageTable != nil || len(bare.pages) != 0 {
		t.Errorf("timing-only device allocated a page table (%d entries) and %d pages", len(bare.pageTable), len(bare.pages))
	}
}
