package experiments

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"rdramstream/internal/addrmap"
)

func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad cell %q", s)
	}
	return v
}

func TestChannelScalingMoreDevicesHelpCLI(t *testing.T) {
	tab, err := ChannelScaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// CLI natural-order should improve markedly from 1 to 8 devices
	// (bank count grows, per-chip tRR relaxes); the SMC is already near
	// peak and must not regress below its single-device level by much.
	one, eight := tab.Rows[0], tab.Rows[3]
	if cell(t, eight[2]) <= cell(t, one[2]) {
		t.Errorf("CLI cache with 8 devices (%s) should beat 1 device (%s)", eight[2], one[2])
	}
	if cell(t, eight[3]) < cell(t, one[3])-2 {
		t.Errorf("CLI SMC regressed with more devices: %s -> %s", one[3], eight[3])
	}
	// Everything stays below 100.
	for _, row := range tab.Rows {
		for _, c := range row[2:] {
			if v := cell(t, c); v <= 0 || v > 100 {
				t.Errorf("out-of-range value %v in %v", v, row)
			}
		}
	}
}

func TestWritebackAblationWidensTheGap(t *testing.T) {
	tab, err := WritebackAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		direct, wa, smc := cell(t, row[2]), cell(t, row[3]), cell(t, row[4])
		if wa > direct {
			t.Errorf("%s/%s: write-allocate %.1f should not beat direct %.1f", row[0], row[1], wa, direct)
		}
		if smc <= wa {
			t.Errorf("%s/%s: SMC %.1f should beat write-allocate %.1f", row[0], row[1], smc, wa)
		}
	}
}

func TestRefreshAblationCostsLittle(t *testing.T) {
	tab, err := RefreshAblation()
	if err != nil {
		t.Fatal(err)
	}
	off := cell(t, tab.Rows[0][1])
	worst := cell(t, tab.Rows[len(tab.Rows)-1][1])
	if worst > off {
		t.Errorf("refresh should not speed things up: off=%.1f worst=%.1f", off, worst)
	}
	if off-worst > 15 {
		t.Errorf("refresh overhead implausibly large: off=%.1f worst=%.1f", off, worst)
	}
	// The refreshing rows actually refreshed.
	if tab.Rows[len(tab.Rows)-1][2] == "0" {
		t.Error("no refreshes recorded at the shortest interval")
	}
}

func TestPanelChart(t *testing.T) {
	p, err := Figure7Panel("copy", addrmap.CLI, 1024)
	if err != nil {
		t.Fatal(err)
	}
	chart := p.Chart()
	for _, want := range []string{"copy", "100%", "0%", "L=SMC combined limit", "S", "C"} {
		if !strings.Contains(chart, want) {
			t.Errorf("chart missing %q:\n%s", want, chart)
		}
	}
	lines := strings.Split(chart, "\n")
	if len(lines) < 22 {
		t.Errorf("chart too short: %d lines", len(lines))
	}
}

func TestCacheConflictAblation(t *testing.T) {
	tab, err := CacheConflictAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	benign, colliding := tab.Rows[0], tab.Rows[1]
	// The colliding layout tanks the direct-mapped cache but not the
	// 2-way cache or the SMC.
	if cell(t, colliding[2]) >= cell(t, benign[2])*0.8 {
		t.Errorf("direct-mapped should collapse on colliding layout: %s vs %s", colliding[2], benign[2])
	}
	if cell(t, colliding[4]) < cell(t, benign[4])-3 {
		t.Errorf("SMC should be layout-insensitive: %s vs %s", colliding[4], benign[4])
	}
	if cell(t, colliding[3]) <= cell(t, colliding[2]) {
		t.Errorf("2-way (%s) should beat direct-mapped (%s) on the colliding layout", colliding[3], colliding[2])
	}
}

func TestCrispEfficiency(t *testing.T) {
	tab, err := CrispEfficiency()
	if err != nil {
		t.Fatal(err)
	}
	// Pinned cell for cell: the §6 comparison must not move when the
	// workload issue path changes.
	want := [][]string{
		{"sequential", "CLI", "87.7", "87.7", "0.50"},
		{"sequential", "PI", "87.4", "87.4", "0.98"},
		{"random", "CLI", "58.5", "83.5", "0.50"},
		{"random", "PI", "46.9", "55.7", "0.50"},
		{"hot-pages", "CLI", "58.6", "83.2", "0.50"},
		{"hot-pages", "PI", "78.9", "85.4", "0.95"},
	}
	if !reflect.DeepEqual(tab.Rows, want) {
		t.Errorf("rows = %q\nwant   %q", tab.Rows, want)
	}
	for _, row := range tab.Rows {
		one, eight := cell(t, row[2]), cell(t, row[3])
		if eight+0.01 < one {
			t.Errorf("%s/%s: 8 devices (%.1f) below 1 device (%.1f)", row[0], row[1], eight, one)
		}
		// The paper's §6 claim: PI should be worse than CLI for random
		// non-stream accesses.
		if row[0] == "random" && row[1] == "PI" {
			for _, other := range tab.Rows {
				if other[0] == "random" && other[1] == "CLI" {
					if cell(t, row[3]) >= cell(t, other[3]) {
						t.Errorf("random: PI (%s) should trail CLI (%s) on 8 devices", row[3], other[3])
					}
				}
			}
		}
	}
}

func TestPriorSystem(t *testing.T) {
	tab, err := PriorSystem()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Unit stride: the §3 claim of >90% attainable bandwidth.
	if v := cell(t, tab.Rows[0][1]); v < 90 {
		t.Errorf("stride-1 SMC attainable = %.1f, want > 90", v)
	}
	for _, row := range tab.Rows {
		if sc := cell(t, row[3]); sc < 1.2 {
			t.Errorf("stride %s: caching speedup %.2f below the paper's floor of ~2", row[0], sc)
		}
		if sn := cell(t, row[4]); sn < 1.2 {
			t.Errorf("stride %s: non-caching speedup %.2f too small", row[0], sn)
		}
	}
}

func TestPolicyCross(t *testing.T) {
	tab, err := PolicyCross()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// For a streaming kernel, the open-page policy should win or tie on
	// both interleaves (page reuse exists under CLI too: a bank's
	// consecutive lines share its page).
	for _, row := range tab.Rows {
		closed, open := cell(t, row[1]), cell(t, row[2])
		if open < closed-2 {
			t.Errorf("%s: open-page %.1f%% well below closed %.1f%% for streams", row[0], open, closed)
		}
	}
}
