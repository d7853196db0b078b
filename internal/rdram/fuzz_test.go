package rdram

import (
	"testing"

	"rdramstream/internal/telemetry"
)

// FuzzDeviceDo fuzzes the device with arbitrary request streams and checks
// the global scheduling invariants: data packets never overlap, never
// precede their column packets, and the functional store round-trips. It
// also checks the device's own counters on every accepted sequence: the
// stall attribution tiles the idle DATA-bus time before the last packet
// exactly (Σ Stalls = LastDataEnd − DataBusBusy), whatever idle cause the
// controller declared, and the per-bank counters sum to the totals.
func FuzzDeviceDo(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{255, 128, 9, 200, 31, 64})
	f.Add([]byte{1, 22, 33, 44, 55, 66, 77, 88, 99, 110, 121, 132})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		cfg := DefaultConfig()
		cfg.Geometry.PagesPerBank = 16
		if len(ops) > 0 && ops[0]%2 == 1 {
			cfg.RefreshInterval = 256
		}
		d := NewDevice(cfg)
		var prevDataEnd int64
		now := int64(0)
		for i, b := range ops {
			req := Request{
				Bank:          int(b) % cfg.Geometry.Banks,
				Row:           (int(b) / 8) % cfg.Geometry.PagesPerBank,
				Col:           (i * 7) % (cfg.Geometry.PageWords / WordsPerPacket),
				Write:         b%3 == 0,
				AutoPrecharge: b%5 == 0,
			}
			if req.Write {
				req.Data = [2]uint64{uint64(i), uint64(b)}
			}
			d.SetIdleCause(telemetry.StallCause(int(b) % int(telemetry.NumStallCauses)))
			if b%11 == 0 {
				// A speculative activate moves no data but shifts the
				// bank's timing under the next access.
				d.ActivateBank((req.Bank+1)%cfg.Geometry.Banks, req.Row, now)
			}
			res := d.Do(now, req)
			if res.DataStart < res.ColIssue {
				t.Fatalf("op %d: data before column packet", i)
			}
			if res.DataStart < prevDataEnd {
				t.Fatalf("op %d: data bus overlap", i)
			}
			prevDataEnd = res.DataEnd
			if req.Write {
				if got := d.PeekWord(req.Bank, req.Row, req.Col, 0); got != uint64(i) {
					t.Fatalf("op %d: stored %d, read back %d", i, i, got)
				}
			}
			if b%7 == 0 {
				now = res.DataEnd
			}
		}

		st := d.Stats()
		var idle int64
		for _, v := range st.Stalls {
			if v < 0 {
				t.Fatalf("negative stall charge: %v", st.Stalls)
			}
			idle += v
		}
		if want := st.LastDataEnd - st.DataBusBusy; idle != want {
			t.Fatalf("Σ Stalls = %d, want LastDataEnd−DataBusBusy = %d−%d = %d (stalls %v)",
				idle, st.LastDataEnd, st.DataBusBusy, want, st.Stalls)
		}
		var sum telemetry.BankCounters
		for _, b := range d.PerBank() {
			sum.Add(b)
		}
		want := telemetry.BankCounters{
			Activates: st.Activates, Precharges: st.Precharges, Reads: st.Reads, Writes: st.Writes,
			PageHits: st.PageHits, PageMisses: st.PageMisses, PageConflicts: st.PageConflicts, Retires: st.Retires,
		}
		if sum != want {
			t.Fatalf("per-bank counters sum to %+v, totals %+v", sum, want)
		}
		if st.Reads+st.Writes != int64(len(ops)) || st.PageHits+st.PageMisses != int64(len(ops)) {
			t.Fatalf("%d accesses, stats %v", len(ops), st)
		}
	})
}
