package rdram

import "testing"

func TestDefaultTimingMatchesFigure2(t *testing.T) {
	tm := DefaultTiming()
	if err := tm.Validate(); err != nil {
		t.Fatalf("default timing invalid: %v", err)
	}
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"TPack", tm.TPack, 4},
		{"TRCD", tm.TRCD, 11},
		{"TRP", tm.TRP, 10},
		{"TCPOL", tm.TCPOL, 1},
		{"TCAC", tm.TCAC, 8},
		{"TRC", tm.TRC, 34},
		{"TRR", tm.TRR, 8},
		{"TRDLY", tm.TRDLY, 2},
		{"TRW", tm.TRW, 6},
		{"TRAC", tm.TRAC(), 20},
		{"TRAS", tm.TRAS(), 24},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	// t_RW must equal t_PACK + t_RDLY per the paper's definition.
	if tm.TRW != tm.TPack+tm.TRDLY {
		t.Errorf("TRW = %d, want TPack+TRDLY = %d", tm.TRW, tm.TPack+tm.TRDLY)
	}
	// The paper's precharge-overlap argument requires tRAS+tRP < 2*tRR+tRAC.
	if tm.TRAS()+tm.TRP >= 2*tm.TRR+tm.TRAC() {
		t.Errorf("tRAS+tRP = %d not < 2*tRR+tRAC = %d", tm.TRAS()+tm.TRP, 2*tm.TRR+tm.TRAC())
	}
}

func TestTimingPeakRates(t *testing.T) {
	tm := DefaultTiming()
	// 16 bytes per 4 cycles = 4 bytes/cycle = 1.6 GB/s at 400 MHz.
	if got := tm.PeakBytesPerCycle(); got != 4 {
		t.Errorf("PeakBytesPerCycle = %v, want 4", got)
	}
	if got := tm.CyclesPerWordPeak(); got != 2 {
		t.Errorf("CyclesPerWordPeak = %v, want 2", got)
	}
}

func TestTimingValidateRejects(t *testing.T) {
	bad := []func(*Timing){
		func(tm *Timing) { tm.TPack = 0 },
		func(tm *Timing) { tm.TRCD = -1 },
		func(tm *Timing) { tm.TCPOL = 9 },
		func(tm *Timing) { tm.TRC = tm.TRP - 1 },
		func(tm *Timing) { tm.TRW = -2 },
	}
	for i, mutate := range bad {
		tm := DefaultTiming()
		mutate(&tm)
		if err := tm.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, tm)
		}
	}
}

func TestGeometryValidate(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	if got := g.CapacityWords(); got != 8*8192*128 {
		t.Errorf("CapacityWords = %d, want %d", got, 8*8192*128)
	}
	bad := []Geometry{
		{Banks: 0, PageWords: 128, PagesPerBank: 1},
		{Banks: 8, PageWords: 3, PagesPerBank: 1},
		{Banks: 8, PageWords: 128, PagesPerBank: 0},
		{Banks: 7, PageWords: 128, PagesPerBank: 1, DoubleBank: true},
		{Banks: 8, PageWords: 128, PagesPerBank: MaxPages/8 + 1},
		{Banks: MaxPages + 1, PageWords: 128, PagesPerBank: 1},
	}
	if g := (Geometry{Banks: 8, PageWords: 128, PagesPerBank: MaxPages / 8}); g.Validate() != nil {
		t.Errorf("geometry at the page limit rejected: %v", g.Validate())
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, g)
		}
	}
}

func TestGeometryAdjacent(t *testing.T) {
	g := Geometry{Banks: 16, PageWords: 128, PagesPerBank: 16, DoubleBank: true}
	if got := g.adjacent(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("adjacent(0) = %v, want [1]", got)
	}
	if got := g.adjacent(5); len(got) != 1 || got[0] != 4 {
		t.Errorf("adjacent(5) = %v, want [4]", got)
	}
	g.DoubleBank = false
	if got := g.adjacent(0); got != nil {
		t.Errorf("adjacent without DoubleBank = %v, want nil", got)
	}
}

func TestConfigValidate(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	c.RefreshInterval = -5
	if err := c.Validate(); err == nil {
		t.Error("expected error for negative RefreshInterval")
	}
}
