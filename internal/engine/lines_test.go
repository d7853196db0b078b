package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
)

// issuePackets is the line issuer as it was before the device took a
// whole line in one call: every packet goes through Issue on its own, in
// order, at the line's presentation cycle. It is kept as the reference
// Issue must match exactly; it returns the first command whether or not
// starts is given.
func (l *Lines) issuePackets(at int64, loc addrmap.Loc, write bool, starts []int64) (int64, error) {
	at = l.window.Admit(at)
	req := rdram.Request{Bank: loc.Bank, Row: loc.Row, Col: loc.Col, Write: write}
	fill := write && l.Store != nil
	var base int64
	if fill {
		base = l.mem.m.Unmap(loc)
	}
	var res rdram.Result
	var first int64
	for p := 0; p < l.packets; p++ {
		req.AutoPrecharge = l.ClosedPage && p == l.packets-1
		if fill {
			for w := range req.Data {
				a := base + int64(p*rdram.WordsPerPacket+w)
				if v, ok := l.Store.Get(a); ok {
					req.Data[w] = v
				} else {
					req.Data[w] = l.mem.Peek(a)
				}
			}
		}
		if err := Issue(l.dev, at, &req, &res); err != nil {
			return 0, err
		}
		if p == 0 {
			first = res.FirstCommand()
		}
		if starts != nil {
			starts[p] = res.DataStart
		}
		req.Col++
	}
	l.window.Complete(res.DataEnd)
	return first, nil
}

// seededInjector draws every fault from its own generator: a rejection
// with probability reject/256, otherwise jitter of up to three cycles
// on each term half the time; with storms, a quarter of the refresh gaps
// shrink.
type seededInjector struct {
	r      *rand.Rand
	reject int
	storms bool
}

func (s *seededInjector) OnAccess(at int64, bank int, write bool) rdram.AccessFault {
	if s.r.Intn(256) < s.reject {
		return rdram.AccessFault{Reject: true}
	}
	var f rdram.AccessFault
	if s.r.Intn(2) == 0 {
		f.RCDExtra, f.CACExtra, f.RPExtra = s.r.Int63n(4), s.r.Int63n(4), s.r.Int63n(4)
	}
	return f
}

func (s *seededInjector) RefreshGap(base int64) int64 {
	if s.storms && s.r.Intn(4) == 0 {
		return 1 + s.r.Int63n(base)
	}
	return base
}

// linesSide is one of the two runs FuzzLinesMatchPackets compares: a
// device, its line issuer and what the device reported.
type linesSide struct {
	dev    *rdram.Device
	lines  Lines
	events []rdram.TraceEvent
}

// FuzzLinesMatchPackets drives two identical devices with the same
// seeded sequence of lines, one through Lines.Issue and its one device
// call per line, the other through the per-packet reference
// (issuePackets), and requires the two to agree on everything: each
// line's first command, error and packet start times, and at the end the
// device's Stats, PerBank, window counts, trace events and memory. A
// seed draws the scheme, 1–8 packets per line, the page policy, the
// outstanding limit, refresh (with or without storms), double banks, a
// second chip, window counting, a Store over a pre-filled functional
// device (or none), and a seeded injector rejecting none, some or most
// presentations and adding jitter; each line draws its address, its
// direction, its presentation cycle, starts on or off and the idle
// cause.
func FuzzLinesMatchPackets(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		packets := 1 + r.Intn(8)
		lw := packets * rdram.WordsPerPacket
		cfg := rdram.DefaultConfig()
		cfg.Geometry.PageWords = lw * []int{1, 2, 4, 8}[r.Intn(4)]
		cfg.Geometry.PagesPerBank = 1 + r.Intn(8)
		cfg.Geometry.DoubleBank = r.Intn(4) == 0
		if r.Intn(4) == 0 {
			cfg.Geometry.DevicesOnChannel = 2
		}
		if r.Intn(2) == 0 {
			cfg.RefreshInterval = 64 + r.Int63n(512)
		}
		scheme := []addrmap.Scheme{addrmap.CLI, addrmap.PI}[r.Intn(2)]
		outstanding := r.Intn(rdram.MaxOutstanding + 1)
		closed := r.Intn(3)
		width := []int64{0, 16, 100}[r.Intn(3)]
		reject := []int{0, 0, 24, 128, 230}[r.Intn(5)]
		storms := r.Intn(2) == 0
		faults := r.Intn(4) != 0
		capacity := cfg.Geometry.CapacityWords()

		// The Store holds about half the words; the device starts with
		// arbitrary contents, which the write fill reads where the Store
		// has no word.
		var store *Image
		if r.Intn(4) != 0 {
			store = new(Image)
			store.Reset(&stream.Kernel{Streams: []stream.Stream{{Stride: 1, Length: capacity}}})
			for a := int64(0); a < int64(capacity); a++ {
				if r.Intn(2) == 0 {
					store.pageFor(a).set(a, r.Uint64())
				}
			}
		}
		memory := make([]uint64, capacity)
		for i := range memory {
			memory[i] = r.Uint64()
		}

		var sides [2]linesSide
		for i := range sides {
			s := &sides[i]
			s.dev = rdram.NewDevice(cfg)
			g := cfg.Geometry
			for b := 0; b < g.Banks; b++ {
				for row := 0; row < g.PagesPerBank; row++ {
					off := (b*g.PagesPerBank + row) * g.PageWords
					copy(s.dev.Page(b, row), memory[off:off+g.PageWords])
				}
			}
			if faults {
				s.dev.Faults = &seededInjector{r: rand.New(rand.NewSource(seed)), reject: reject, storms: storms}
			}
			s.dev.Windows.Width = width
			s.dev.Trace = func(ev rdram.TraceEvent) { s.events = append(s.events, ev) }
			var err error
			if s.lines, err = NewLines(s.dev, scheme, lw, outstanding); err != nil {
				t.Fatal(err)
			}
			if closed < 2 {
				s.lines.ClosedPage = closed == 1
			}
			s.lines.Store = store
		}

		lines := int64(capacity / lw)
		var line, at int64
		for n := 0; n < 200; n++ {
			switch c := r.Intn(4); {
			case c == 0:
				line = r.Int63n(lines)
			case c == 1:
				line = (line + 1) % lines
			}
			write := r.Intn(3) == 0
			at += r.Int63n(24)
			if r.Intn(8) == 0 {
				at = 0
			}
			withStarts := r.Intn(2) == 0
			cause := telemetry.StallCause(r.Intn(int(telemetry.NumStallCauses)))

			var firsts [2]int64
			var errs [2]error
			var starts [2][]int64
			for i := range sides {
				s := &sides[i]
				s.dev.SetIdleCause(cause)
				if withStarts {
					starts[i] = make([]int64, packets)
				}
				loc := s.lines.Loc(line * int64(lw))
				if i == 0 {
					firsts[i], errs[i] = s.lines.Issue(at, loc, write, starts[i])
				} else {
					firsts[i], errs[i] = s.lines.issuePackets(at, loc, write, starts[i])
				}
			}
			if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
				t.Fatalf("line %d: Issue error %v, per-packet %v", n, errs[0], errs[1])
			}
			if errs[0] != nil {
				break
			}
			if firsts[0] != firsts[1] || !reflect.DeepEqual(starts[0], starts[1]) {
				t.Fatalf("line %d: Issue first %d starts %v, per-packet first %d starts %v",
					n, firsts[0], starts[0], firsts[1], starts[1])
			}
		}

		a, b := sides[0].dev, sides[1].dev
		if a.Stats() != b.Stats() {
			t.Errorf("Stats:\n  Issue      %+v\n  per-packet %+v", a.Stats(), b.Stats())
		}
		if !reflect.DeepEqual(a.PerBank(), b.PerBank()) {
			t.Errorf("PerBank:\n  Issue      %+v\n  per-packet %+v", a.PerBank(), b.PerBank())
		}
		if !reflect.DeepEqual(a.Windows.Counts, b.Windows.Counts) {
			t.Errorf("window counts differ:\n  Issue      %+v\n  per-packet %+v", a.Windows.Counts, b.Windows.Counts)
		}
		if !reflect.DeepEqual(sides[0].events, sides[1].events) {
			t.Errorf("trace differs: %d events from Issue, %d per packet", len(sides[0].events), len(sides[1].events))
		}
		g := cfg.Geometry
		for bank := 0; bank < g.Banks; bank++ {
			for row := 0; row < g.PagesPerBank; row++ {
				if !reflect.DeepEqual(a.Page(bank, row), b.Page(bank, row)) {
					t.Fatalf("bank %d row %d: memory differs", bank, row)
				}
			}
		}
	})
}
