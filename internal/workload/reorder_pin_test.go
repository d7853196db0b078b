package workload_test

import (
	"fmt"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/telemetry"
	"rdramstream/internal/tracegen"
	"rdramstream/internal/workload"
)

// pinInput is one trace the reorder pin replays.
type pinInput struct {
	name string
	accs []workload.TraceAccess
}

// reorderPinInputs returns the row-scattered trace and one seeded
// program of each tracegen pattern, 4096 accesses each.
func reorderPinInputs(t testing.TB) []pinInput {
	in := []pinInput{{name: "scattered", accs: workload.ScatteredTrace(4096)}}
	for i, ph := range []tracegen.Phase{
		{Pattern: tracegen.PatternLLMKV, ContextRows: 32},
		{Pattern: tracegen.PatternHotRow, WriteFraction: 0.2},
		{Pattern: tracegen.PatternChase, WriteFraction: 0.1},
		{Pattern: tracegen.PatternStrided, StrideWords: 96, WriteFraction: 0.5},
	} {
		ph.Accesses = 4096
		p := tracegen.Program{Seed: int64(100 + i), Phases: []tracegen.Phase{ph}}
		accs, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, pinInput{name: ph.Pattern, accs: accs})
	}
	return in
}

// pinWindows are the reorder window depths the pin covers.
var pinWindows = []int{8, 32, 128}

// pinKey names one replay of the pin: input, scheme, reorder and window
// (window 0 for an in-order replay, which ignores it).
func pinKey(input string, s addrmap.Scheme, reorder bool, window int) string {
	return fmt.Sprintf("%s/%v/reorder=%v/window=%d", input, s, reorder, window)
}

// stalls spells a Stats.Stalls array in telemetry.StallCauses() order.
func stalls(v ...int64) (s [telemetry.NumStallCauses]int64) {
	copy(s[:], v)
	return s
}

// reorderPin is the full device Stats of every replay in the pin,
// recorded at 71c709d, where the replay mapped every packet and ran the
// row-hit scan under CLI too: the per-line mapping and request, the CLI
// in-order loop and the scheduler's list must leave every counter as it
// was.
var reorderPin = map[string]rdram.Stats{
	"scattered/CLI/reorder=false/window=0":    {Activates: 4095, Precharges: 4095, Reads: 6562, Writes: 1628, PageHits: 4095, PageMisses: 4095, Retires: 648, DataBusBusy: 32760, LastDataEnd: 56254, Stalls: stalls(0, 0, 0, 0, 0, 3034, 8844, 2971, 8645, 0, 0)},
	"scattered/CLI/reorder=true/window=8":     {Activates: 4095, Precharges: 4095, Reads: 6562, Writes: 1628, PageHits: 4095, PageMisses: 4095, Retires: 648, DataBusBusy: 32760, LastDataEnd: 56254, Stalls: stalls(0, 0, 0, 0, 0, 3034, 8844, 2971, 8645, 0, 0)},
	"scattered/CLI/reorder=true/window=32":    {Activates: 4095, Precharges: 4095, Reads: 6562, Writes: 1628, PageHits: 4095, PageMisses: 4095, Retires: 648, DataBusBusy: 32760, LastDataEnd: 56254, Stalls: stalls(0, 0, 0, 0, 0, 3034, 8844, 2971, 8645, 0, 0)},
	"scattered/CLI/reorder=true/window=128":   {Activates: 4095, Precharges: 4095, Reads: 6562, Writes: 1628, PageHits: 4095, PageMisses: 4095, Retires: 648, DataBusBusy: 32760, LastDataEnd: 56254, Stalls: stalls(0, 0, 0, 0, 0, 3034, 8844, 2971, 8645, 0, 0)},
	"scattered/PI/reorder=false/window=0":     {Activates: 3581, Precharges: 3573, Reads: 6562, Writes: 1628, PageHits: 4609, PageMisses: 3581, PageConflicts: 3573, Retires: 648, DataBusBusy: 32760, LastDataEnd: 62952, Stalls: stalls(0, 0, 0, 0, 2524, 0, 7634, 2135, 17899, 0, 0)},
	"scattered/PI/reorder=true/window=8":      {Activates: 3210, Precharges: 3202, Reads: 6562, Writes: 1628, PageHits: 4980, PageMisses: 3210, PageConflicts: 3202, Retires: 656, DataBusBusy: 32760, LastDataEnd: 56820, Stalls: stalls(0, 0, 0, 0, 1644, 0, 5854, 2605, 13957, 0, 0)},
	"scattered/PI/reorder=true/window=32":     {Activates: 2399, Precharges: 2391, Reads: 6562, Writes: 1628, PageHits: 5791, PageMisses: 2399, PageConflicts: 2391, Retires: 650, DataBusBusy: 32760, LastDataEnd: 48728, Stalls: stalls(0, 0, 0, 0, 860, 0, 3885, 3201, 8022, 0, 0)},
	"scattered/PI/reorder=true/window=128":    {Activates: 1211, Precharges: 1203, Reads: 6562, Writes: 1628, PageHits: 6979, PageMisses: 1211, PageConflicts: 1203, Retires: 655, DataBusBusy: 32760, LastDataEnd: 41730, Stalls: stalls(0, 0, 0, 0, 264, 0, 1797, 3708, 3201, 0, 0)},
	"llm-kvcache/CLI/reorder=false/window=0":  {Activates: 1024, Precharges: 1024, Reads: 1536, Writes: 512, PageHits: 1024, PageMisses: 1024, Retires: 1, DataBusBusy: 8192, LastDataEnd: 25684, Stalls: stalls(0, 0, 0, 0, 0, 4032, 7403, 6, 6051, 0, 0)},
	"llm-kvcache/CLI/reorder=true/window=8":   {Activates: 1024, Precharges: 1024, Reads: 1536, Writes: 512, PageHits: 1024, PageMisses: 1024, Retires: 1, DataBusBusy: 8192, LastDataEnd: 25684, Stalls: stalls(0, 0, 0, 0, 0, 4032, 7403, 6, 6051, 0, 0)},
	"llm-kvcache/CLI/reorder=true/window=32":  {Activates: 1024, Precharges: 1024, Reads: 1536, Writes: 512, PageHits: 1024, PageMisses: 1024, Retires: 1, DataBusBusy: 8192, LastDataEnd: 25684, Stalls: stalls(0, 0, 0, 0, 0, 4032, 7403, 6, 6051, 0, 0)},
	"llm-kvcache/CLI/reorder=true/window=128": {Activates: 1024, Precharges: 1024, Reads: 1536, Writes: 512, PageHits: 1024, PageMisses: 1024, Retires: 1, DataBusBusy: 8192, LastDataEnd: 25684, Stalls: stalls(0, 0, 0, 0, 0, 4032, 7403, 6, 6051, 0, 0)},
	"llm-kvcache/PI/reorder=false/window=0":   {Activates: 435, Precharges: 427, Reads: 1536, Writes: 512, PageHits: 1613, PageMisses: 435, PageConflicts: 427, Retires: 1, DataBusBusy: 8192, LastDataEnd: 11792, Stalls: stalls(0, 0, 0, 0, 178, 0, 959, 0, 2463, 0, 0)},
	"llm-kvcache/PI/reorder=true/window=8":    {Activates: 168, Precharges: 160, Reads: 1536, Writes: 512, PageHits: 1880, PageMisses: 168, PageConflicts: 160, Retires: 1, DataBusBusy: 8192, LastDataEnd: 9496, Stalls: stalls(0, 0, 0, 0, 48, 0, 398, 0, 858, 0, 0)},
	"llm-kvcache/PI/reorder=true/window=32":   {Activates: 74, Precharges: 66, Reads: 1536, Writes: 512, PageHits: 1974, PageMisses: 74, PageConflicts: 66, Retires: 1, DataBusBusy: 8192, LastDataEnd: 8886, Stalls: stalls(0, 0, 0, 0, 48, 0, 214, 0, 432, 0, 0)},
	"llm-kvcache/PI/reorder=true/window=128":  {Activates: 39, Precharges: 31, Reads: 1536, Writes: 512, PageHits: 2009, PageMisses: 39, PageConflicts: 31, Retires: 1, DataBusBusy: 8192, LastDataEnd: 8538, Stalls: stalls(0, 0, 0, 0, 48, 0, 121, 0, 177, 0, 0)},
	"hot-row/CLI/reorder=false/window=0":      {Activates: 1769, Precharges: 1769, Reads: 2862, Writes: 676, PageHits: 1769, PageMisses: 1769, Retires: 163, DataBusBusy: 14152, LastDataEnd: 21500, Stalls: stalls(0, 0, 0, 0, 0, 826, 2762, 724, 3036, 0, 0)},
	"hot-row/CLI/reorder=true/window=8":       {Activates: 1769, Precharges: 1769, Reads: 2862, Writes: 676, PageHits: 1769, PageMisses: 1769, Retires: 163, DataBusBusy: 14152, LastDataEnd: 21500, Stalls: stalls(0, 0, 0, 0, 0, 826, 2762, 724, 3036, 0, 0)},
	"hot-row/CLI/reorder=true/window=32":      {Activates: 1769, Precharges: 1769, Reads: 2862, Writes: 676, PageHits: 1769, PageMisses: 1769, Retires: 163, DataBusBusy: 14152, LastDataEnd: 21500, Stalls: stalls(0, 0, 0, 0, 0, 826, 2762, 724, 3036, 0, 0)},
	"hot-row/CLI/reorder=true/window=128":     {Activates: 1769, Precharges: 1769, Reads: 2862, Writes: 676, PageHits: 1769, PageMisses: 1769, Retires: 163, DataBusBusy: 14152, LastDataEnd: 21500, Stalls: stalls(0, 0, 0, 0, 0, 826, 2762, 724, 3036, 0, 0)},
	"hot-row/PI/reorder=false/window=0":       {Activates: 186, Precharges: 178, Reads: 2862, Writes: 676, PageHits: 3352, PageMisses: 186, PageConflicts: 178, Retires: 163, DataBusBusy: 14152, LastDataEnd: 16026, Stalls: stalls(0, 0, 0, 0, 18, 0, 285, 956, 615, 0, 0)},
	"hot-row/PI/reorder=true/window=8":        {Activates: 180, Precharges: 172, Reads: 2862, Writes: 676, PageHits: 3358, PageMisses: 180, PageConflicts: 172, Retires: 168, DataBusBusy: 14152, LastDataEnd: 15924, Stalls: stalls(0, 0, 0, 0, 6, 0, 217, 996, 553, 0, 0)},
	"hot-row/PI/reorder=true/window=32":       {Activates: 169, Precharges: 161, Reads: 2862, Writes: 676, PageHits: 3369, PageMisses: 169, PageConflicts: 161, Retires: 175, DataBusBusy: 14152, LastDataEnd: 15938, Stalls: stalls(0, 0, 0, 0, 24, 0, 231, 1020, 511, 0, 0)},
	"hot-row/PI/reorder=true/window=128":      {Activates: 152, Precharges: 144, Reads: 2862, Writes: 676, PageHits: 3386, PageMisses: 152, PageConflicts: 144, Retires: 162, DataBusBusy: 14152, LastDataEnd: 15824, Stalls: stalls(0, 0, 0, 0, 6, 0, 213, 960, 493, 0, 0)},
	"chase/CLI/reorder=false/window=0":        {Activates: 4095, Precharges: 4095, Reads: 7372, Writes: 818, PageHits: 4095, PageMisses: 4095, Retires: 371, DataBusBusy: 32760, LastDataEnd: 55876, Stalls: stalls(0, 0, 0, 0, 0, 2892, 8906, 1707, 9611, 0, 0)},
	"chase/CLI/reorder=true/window=8":         {Activates: 4095, Precharges: 4095, Reads: 7372, Writes: 818, PageHits: 4095, PageMisses: 4095, Retires: 371, DataBusBusy: 32760, LastDataEnd: 55876, Stalls: stalls(0, 0, 0, 0, 0, 2892, 8906, 1707, 9611, 0, 0)},
	"chase/CLI/reorder=true/window=32":        {Activates: 4095, Precharges: 4095, Reads: 7372, Writes: 818, PageHits: 4095, PageMisses: 4095, Retires: 371, DataBusBusy: 32760, LastDataEnd: 55876, Stalls: stalls(0, 0, 0, 0, 0, 2892, 8906, 1707, 9611, 0, 0)},
	"chase/CLI/reorder=true/window=128":       {Activates: 4095, Precharges: 4095, Reads: 7372, Writes: 818, PageHits: 4095, PageMisses: 4095, Retires: 371, DataBusBusy: 32760, LastDataEnd: 55876, Stalls: stalls(0, 0, 0, 0, 0, 2892, 8906, 1707, 9611, 0, 0)},
	"chase/PI/reorder=false/window=0":         {Activates: 4092, Precharges: 4084, Reads: 7372, Writes: 818, PageHits: 4098, PageMisses: 4092, PageConflicts: 4084, Retires: 371, DataBusBusy: 32760, LastDataEnd: 70336, Stalls: stalls(0, 0, 0, 0, 3522, 0, 8298, 831, 24925, 0, 0)},
	"chase/PI/reorder=true/window=8":          {Activates: 4088, Precharges: 4080, Reads: 7372, Writes: 818, PageHits: 4102, PageMisses: 4088, PageConflicts: 4080, Retires: 370, DataBusBusy: 32760, LastDataEnd: 70226, Stalls: stalls(0, 0, 0, 0, 3516, 0, 8257, 834, 24859, 0, 0)},
	"chase/PI/reorder=true/window=32":         {Activates: 4079, Precharges: 4071, Reads: 7372, Writes: 818, PageHits: 4111, PageMisses: 4079, PageConflicts: 4071, Retires: 372, DataBusBusy: 32760, LastDataEnd: 70014, Stalls: stalls(0, 0, 0, 0, 3472, 0, 8194, 857, 24731, 0, 0)},
	"chase/PI/reorder=true/window=128":        {Activates: 4034, Precharges: 4026, Reads: 7372, Writes: 818, PageHits: 4156, PageMisses: 4034, PageConflicts: 4026, Retires: 373, DataBusBusy: 32760, LastDataEnd: 69250, Stalls: stalls(0, 0, 0, 0, 3370, 0, 8056, 893, 24171, 0, 0)},
	"strided/CLI/reorder=false/window=0":      {Activates: 1024, Precharges: 1024, Reads: 1030, Writes: 1018, PageHits: 1024, PageMisses: 1024, Retires: 267, DataBusBusy: 8192, LastDataEnd: 34804, Stalls: stalls(0, 0, 0, 0, 0, 9186, 11264, 0, 6162, 0, 0)},
	"strided/CLI/reorder=true/window=8":       {Activates: 1024, Precharges: 1024, Reads: 1030, Writes: 1018, PageHits: 1024, PageMisses: 1024, Retires: 267, DataBusBusy: 8192, LastDataEnd: 34804, Stalls: stalls(0, 0, 0, 0, 0, 9186, 11264, 0, 6162, 0, 0)},
	"strided/CLI/reorder=true/window=32":      {Activates: 1024, Precharges: 1024, Reads: 1030, Writes: 1018, PageHits: 1024, PageMisses: 1024, Retires: 267, DataBusBusy: 8192, LastDataEnd: 34804, Stalls: stalls(0, 0, 0, 0, 0, 9186, 11264, 0, 6162, 0, 0)},
	"strided/CLI/reorder=true/window=128":     {Activates: 1024, Precharges: 1024, Reads: 1030, Writes: 1018, PageHits: 1024, PageMisses: 1024, Retires: 267, DataBusBusy: 8192, LastDataEnd: 34804, Stalls: stalls(0, 0, 0, 0, 0, 9186, 11264, 0, 6162, 0, 0)},
	"strided/PI/reorder=false/window=0":       {Activates: 768, Precharges: 760, Reads: 1030, Writes: 1018, PageHits: 1280, PageMisses: 768, PageConflicts: 760, Retires: 267, DataBusBusy: 8192, LastDataEnd: 10894, Stalls: stalls(0, 0, 0, 0, 0, 0, 201, 1491, 1010, 0, 0)},
	"strided/PI/reorder=true/window=8":        {Activates: 768, Precharges: 760, Reads: 1030, Writes: 1018, PageHits: 1280, PageMisses: 768, PageConflicts: 760, Retires: 267, DataBusBusy: 8192, LastDataEnd: 10894, Stalls: stalls(0, 0, 0, 0, 0, 0, 201, 1491, 1010, 0, 0)},
	"strided/PI/reorder=true/window=32":       {Activates: 768, Precharges: 760, Reads: 1030, Writes: 1018, PageHits: 1280, PageMisses: 768, PageConflicts: 760, Retires: 267, DataBusBusy: 8192, LastDataEnd: 10894, Stalls: stalls(0, 0, 0, 0, 0, 0, 201, 1491, 1010, 0, 0)},
	"strided/PI/reorder=true/window=128":      {Activates: 768, Precharges: 760, Reads: 1030, Writes: 1018, PageHits: 1280, PageMisses: 768, PageConflicts: 760, Retires: 267, DataBusBusy: 8192, LastDataEnd: 10894, Stalls: stalls(0, 0, 0, 0, 0, 0, 201, 1491, 1010, 0, 0)},
}

// TestReplayTraceReorderPin replays every pin input under {CLI, PI} ×
// reorder {off, on} × window {8, 32, 128} and compares the device's
// full Stats, stall attribution included, with the recorded table. An
// in-order replay ignores the window, so all three must match its one
// row.
func TestReplayTraceReorderPin(t *testing.T) {
	for _, in := range reorderPinInputs(t) {
		for _, s := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			for _, reorder := range []bool{false, true} {
				for _, w := range pinWindows {
					key := pinKey(in.name, s, reorder, w)
					if !reorder {
						key = pinKey(in.name, s, false, 0)
					}
					want, ok := reorderPin[key]
					if !ok {
						t.Fatalf("no pinned row %s", key)
					}
					res, err := workload.ReplayTrace(rdram.NewDevice(rdram.DefaultConfig()),
						workload.TraceOptions{Scheme: s, LineWords: 4, Reorder: reorder, Window: w}, in.accs)
					if err != nil {
						t.Fatal(err)
					}
					if res.Device != want {
						t.Errorf("%s window %d: device stats diverge:\n  got  %+v\n  want %+v", key, w, res.Device, want)
					}
					if res.Cycles != want.LastDataEnd {
						t.Errorf("%s window %d: %d cycles, want %d", key, w, res.Cycles, want.LastDataEnd)
					}
				}
			}
		}
	}
}
