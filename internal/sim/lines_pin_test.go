package sim

import (
	"fmt"
	"strings"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/cache"
	"rdramstream/internal/fault"
	"rdramstream/internal/natorder"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
	"rdramstream/internal/workload"
)

// linePin is what TestLineTransactionPin records of one run: the
// counters a controller hands to engine.Result, the formatted
// PercentPeak (%.10f, as TestGoldenParity compares it) and the device's
// full Stats, stall attribution included.
type linePin struct {
	Cycles, UsefulWords, TransferredWords int64
	PercentPeak                           string
	Device                                rdram.Stats
}

// String spells p as the Go literal the pin table holds, zero counters
// left out, so a failure prints the line to record.
func (p linePin) String() string {
	d := p.Device
	var b strings.Builder
	fmt.Fprintf(&b, "{%d, %d, %d, %q, rdram.Stats{", p.Cycles, p.UsefulWords, p.TransferredWords, p.PercentPeak)
	sep := ""
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"Activates", d.Activates}, {"Precharges", d.Precharges}, {"Reads", d.Reads}, {"Writes", d.Writes},
		{"PageHits", d.PageHits}, {"PageMisses", d.PageMisses}, {"PageConflicts", d.PageConflicts},
		{"Retires", d.Retires}, {"Refreshes", d.Refreshes}, {"DataBusBusy", d.DataBusBusy},
		{"LastDataEnd", d.LastDataEnd}, {"Rejections", d.Rejections}, {"JitterCycles", d.JitterCycles},
	} {
		if f.v != 0 {
			fmt.Fprintf(&b, "%s%s: %d", sep, f.name, f.v)
			sep = ", "
		}
	}
	s := fmt.Sprint(d.Stalls)
	fmt.Fprintf(&b, "%sStalls: pinStalls(%s)}}", sep, strings.ReplaceAll(s[1:len(s)-1], " ", ", "))
	return b.String()
}

// pinStalls spells a Stats.Stalls array in telemetry.StallCauses() order.
func pinStalls(v ...int64) (s [telemetry.NumStallCauses]int64) {
	copy(s[:], v)
	return s
}

// pinKernels are the kernels the pin runs, each at N=512, staggered.
var pinKernels = []string{"copy", "daxpy", "hydro", "vaxpy"}

// pinVariants are the natural-order configurations TestGoldenParity does
// not reach; the scheme is filled in per run.
var pinVariants = []struct {
	name string
	cfg  natorder.Config
}{
	{"closed", natorder.Config{LineWords: 4, Policy: natorder.ForceClosed}},
	{"open", natorder.Config{LineWords: 4, Policy: natorder.ForceOpen}},
	{"outstanding1", natorder.Config{LineWords: 4, Outstanding: 1}},
	{"writealloc", natorder.Config{LineWords: 4, WriteAllocate: true}},
	{"cache2way", natorder.Config{LineWords: 4, Cache: &cache.Config{SizeWords: 2048, LineWords: 4, Ways: 2}}},
}

// TestLineTransactionPin pins every cacheline-transaction path that
// TestGoldenParity does not: the conventional controller and the
// natural-order variants, each clean and under fault severity 3, and the
// Crisp random workloads (experiments.CrispEfficiency's twelve cells).
// The values were recorded before natural order, the conventional
// controller, trace replay and the Crisp workloads shared one line
// issuer; any difference means the shared path changed what a
// transaction does.
func TestLineTransactionPin(t *testing.T) {
	check := func(t *testing.T, key string, got linePin) {
		t.Helper()
		want, ok := lineTransactionPin[key]
		if !ok {
			t.Errorf("%q: no pin; got\n\t%q: %v,", key, key, got)
			return
		}
		if got != want {
			t.Errorf("%q:\n\tgot  %v\n\twant %v", key, got, want)
		}
	}
	severities := []int{0, 3}
	for _, kn := range pinKernels {
		for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			for _, sev := range severities {
				fc := fault.Scaled(5, sev)
				sc := Scenario{
					KernelName: kn, N: 512, Scheme: scheme, Placement: stream.Staggered,
					Controller: "conventional", Seed: 7, Fault: &fc,
				}
				key := fmt.Sprintf("conventional/%s/%v/sev=%d", kn, scheme, sev)
				out, err := Run(sc)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if !out.Verified {
					t.Errorf("%s: not verified", key)
				}
				check(t, key, linePin{out.Cycles, out.UsefulWords, out.TransferredWords, fmt.Sprintf("%.10f", out.PercentPeak), out.Device})

				for _, v := range pinVariants {
					key := fmt.Sprintf("natural/%s/%s/%v/sev=%d", v.name, kn, scheme, sev)
					cfg := v.cfg
					cfg.Scheme = scheme
					res, err := runNatural(sc, cfg)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					check(t, key, linePin{res.Cycles, res.UsefulWords, res.TransferredWords, fmt.Sprintf("%.10f", res.PercentPeak), res.Device})
				}
			}
		}
	}
	for _, pattern := range []workload.Pattern{workload.Sequential, workload.RandomUniform, workload.HotPages} {
		for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			for _, devices := range []int{1, 8} {
				key := fmt.Sprintf("crisp/%v/%v/devices=%d", pattern, scheme, devices)
				devCfg := rdram.DefaultConfig()
				devCfg.Geometry.Banks *= devices
				devCfg.Geometry.DevicesOnChannel = devices
				res, err := workload.Run(rdram.NewDevice(devCfg), workload.Config{
					Pattern: pattern, Requests: 6000, LineWords: 4,
					Scheme: scheme, ReadFraction: 0.75, Seed: 11,
				})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				// Every line a Crisp workload moves is demanded.
				words := res.Device.PacketCount() * rdram.WordsPerPacket
				check(t, key, linePin{res.Cycles, words, words, fmt.Sprintf("%.10f", res.PercentPeak), res.Device})
			}
		}
	}
}

// runNatural runs sc's kernel through natorder.Run under cfg on the
// scenario's device (fault injector included), seeded and verified as
// RunKernel does.
func runNatural(sc Scenario, cfg natorder.Config) (natorder.Result, error) {
	sc = sc.withDefaults()
	k, err := BuildKernel(sc)
	if err != nil {
		return natorder.Result{}, err
	}
	dev, scr, err := newDevice(sc)
	if err != nil {
		return natorder.Result{}, err
	}
	defer scr.release(dev)
	mapper, err := addrmap.New(sc.Scheme, sc.Device.Geometry, sc.LineWords)
	if err != nil {
		return natorder.Result{}, err
	}
	seed(dev, &mapper, k, sc.Seed, scr.rng(), &scr.image)
	res, err := natorder.Run(dev, k, cfg)
	if err != nil {
		return natorder.Result{}, err
	}
	return res, verify(dev, &mapper, k, &scr.image)
}

// lineTransactionPin holds the pinned runs, keyed by path, variant,
// kernel or pattern, scheme and fault severity or device count.
var lineTransactionPin = map[string]linePin{
	"conventional/copy/CLI/sev=0":          {2830, 1024, 1024, "72.3674911661", rdram.Stats{Activates: 256, Precharges: 256, Reads: 256, Writes: 256, PageHits: 256, PageMisses: 256, Retires: 127, DataBusBusy: 2048, LastDataEnd: 2830, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 11, 762, 9, 0, 0)}},
	"natural/closed/copy/CLI/sev=0":        {3598, 1024, 1024, "56.9205113952", rdram.Stats{Activates: 256, Precharges: 256, Reads: 256, Writes: 256, PageHits: 256, PageMisses: 256, Retires: 127, DataBusBusy: 2048, LastDataEnd: 3598, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 395, 762, 393, 0, 0)}},
	"natural/open/copy/CLI/sev=0":          {5582, 1024, 1024, "36.6893586528", rdram.Stats{Activates: 256, Precharges: 248, Reads: 256, Writes: 256, PageHits: 256, PageMisses: 256, PageConflicts: 248, Retires: 127, DataBusBusy: 2048, LastDataEnd: 5582, Stalls: pinStalls(0, 0, 0, 0, 248, 0, 1759, 390, 1137, 0, 0)}},
	"natural/outstanding1/copy/CLI/sev=0":  {6400, 1024, 1024, "32.0000000000", rdram.Stats{Activates: 256, Precharges: 256, Reads: 256, Writes: 256, PageHits: 256, PageMisses: 256, Retires: 127, DataBusBusy: 2048, LastDataEnd: 6400, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 2816, 0, 1536, 0, 0)}},
	"natural/writealloc/copy/CLI/sev=0":    {5410, 1024, 1536, "37.8558225508", rdram.Stats{Activates: 384, Precharges: 384, Reads: 512, Writes: 256, PageHits: 384, PageMisses: 384, Retires: 127, DataBusBusy: 3072, LastDataEnd: 5410, Stalls: pinStalls(0, 0, 0, 0, 0, 6, 1168, 762, 402, 0, 0)}},
	"natural/cache2way/copy/CLI/sev=0":     {4628, 1024, 1536, "44.2523768366", rdram.Stats{Activates: 384, Precharges: 384, Reads: 512, Writes: 256, PageHits: 384, PageMisses: 384, DataBusBusy: 3072, LastDataEnd: 4628, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 395, 0, 1161, 0, 0)}},
	"conventional/copy/CLI/sev=3":          {3504, 1024, 1024, "58.4474885845", rdram.Stats{Activates: 257, Precharges: 257, Reads: 256, Writes: 256, PageHits: 256, PageMisses: 256, Retires: 127, Refreshes: 1, DataBusBusy: 2048, LastDataEnd: 3504, Rejections: 33, JitterCycles: 3181, Stalls: pinStalls(0, 0, 0, 0, 0, 34, 22, 756, 644, 0, 0)}},
	"natural/closed/copy/CLI/sev=3":        {5301, 1024, 1024, "38.6342199585", rdram.Stats{Activates: 258, Precharges: 258, Reads: 256, Writes: 256, PageHits: 256, PageMisses: 256, Retires: 127, Refreshes: 2, DataBusBusy: 2048, LastDataEnd: 5301, Rejections: 33, JitterCycles: 3181, Stalls: pinStalls(0, 1, 0, 0, 0, 24, 309, 762, 2157, 0, 0)}},
	"natural/open/copy/CLI/sev=3":          {7811, 1024, 1024, "26.2194341314", rdram.Stats{Activates: 259, Precharges: 251, Reads: 256, Writes: 256, PageHits: 256, PageMisses: 256, PageConflicts: 245, Retires: 127, Refreshes: 3, DataBusBusy: 2048, LastDataEnd: 7811, Rejections: 33, JitterCycles: 4211, Stalls: pinStalls(0, 1, 0, 0, 254, 434, 1416, 676, 2982, 0, 0)}},
	"natural/outstanding1/copy/CLI/sev=3":  {9109, 1024, 1024, "22.4832583160", rdram.Stats{Activates: 260, Precharges: 260, Reads: 256, Writes: 256, PageHits: 256, PageMisses: 256, Retires: 127, Refreshes: 4, DataBusBusy: 2048, LastDataEnd: 9109, Rejections: 33, JitterCycles: 3181, Stalls: pinStalls(0, 68, 0, 0, 0, 85, 2816, 0, 4092, 0, 0)}},
	"natural/writealloc/copy/CLI/sev=3":    {6041, 1024, 1536, "33.9016719086", rdram.Stats{Activates: 386, Precharges: 386, Reads: 512, Writes: 256, PageHits: 384, PageMisses: 384, Retires: 127, Refreshes: 2, DataBusBusy: 3072, LastDataEnd: 6041, Rejections: 48, JitterCycles: 4667, Stalls: pinStalls(0, 0, 0, 0, 0, 12, 50, 750, 2157, 0, 0)}},
	"natural/cache2way/copy/CLI/sev=3":     {6779, 1024, 1536, "30.2109455672", rdram.Stats{Activates: 387, Precharges: 387, Reads: 512, Writes: 256, PageHits: 384, PageMisses: 384, Refreshes: 3, DataBusBusy: 3072, LastDataEnd: 6779, Rejections: 48, JitterCycles: 4712, Stalls: pinStalls(0, 1, 0, 0, 0, 45, 320, 0, 3341, 0, 0)}},
	"conventional/copy/PI/sev=0":           {2830, 1024, 1024, "72.3674911661", rdram.Stats{Activates: 8, Reads: 256, Writes: 256, PageHits: 504, PageMisses: 8, Retires: 127, DataBusBusy: 2048, LastDataEnd: 2830, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 11, 762, 9, 0, 0)}},
	"natural/closed/copy/PI/sev=0":         {4342, 1024, 1024, "47.1672040534", rdram.Stats{Activates: 256, Precharges: 256, Reads: 256, Writes: 256, PageHits: 256, PageMisses: 256, Retires: 127, DataBusBusy: 2048, LastDataEnd: 4342, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 767, 390, 1137, 0, 0)}},
	"natural/open/copy/PI/sev=0":           {2863, 1024, 1024, "71.5333566189", rdram.Stats{Activates: 8, Reads: 256, Writes: 256, PageHits: 504, PageMisses: 8, Retires: 127, DataBusBusy: 2048, LastDataEnd: 2863, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 23, 762, 30, 0, 0)}},
	"natural/outstanding1/copy/PI/sev=0":   {3672, 1024, 1024, "55.7734204793", rdram.Stats{Activates: 8, Reads: 256, Writes: 256, PageHits: 504, PageMisses: 8, Retires: 127, DataBusBusy: 2048, LastDataEnd: 3672, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 88, 744, 792, 0, 0)}},
	"natural/writealloc/copy/PI/sev=0":     {3884, 1024, 1536, "52.7291452111", rdram.Stats{Activates: 8, Reads: 512, Writes: 256, PageHits: 760, PageMisses: 8, Retires: 127, DataBusBusy: 3072, LastDataEnd: 3884, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 14, 762, 36, 0, 0)}},
	"natural/cache2way/copy/PI/sev=0":      {3285, 1024, 1536, "62.3439878234", rdram.Stats{Activates: 8, Reads: 512, Writes: 256, PageHits: 760, PageMisses: 8, DataBusBusy: 3072, LastDataEnd: 3285, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 23, 0, 190, 0, 0)}},
	"conventional/copy/PI/sev=3":           {3470, 1024, 1024, "59.0201729107", rdram.Stats{Activates: 9, Precharges: 2, Reads: 256, Writes: 256, PageHits: 504, PageMisses: 8, Retires: 127, Refreshes: 1, DataBusBusy: 2048, LastDataEnd: 3470, Rejections: 33, JitterCycles: 2112, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 11, 762, 649, 0, 0)}},
	"natural/closed/copy/PI/sev=3":         {5292, 1024, 1024, "38.6999244142", rdram.Stats{Activates: 258, Precharges: 258, Reads: 256, Writes: 256, PageHits: 256, PageMisses: 256, Retires: 127, Refreshes: 2, DataBusBusy: 2048, LastDataEnd: 5292, Rejections: 33, JitterCycles: 3174, Stalls: pinStalls(0, 0, 0, 0, 0, 12, 308, 762, 2162, 0, 0)}},
	"natural/open/copy/PI/sev=3":           {3630, 1024, 1024, "56.4187327824", rdram.Stats{Activates: 9, Precharges: 2, Reads: 256, Writes: 256, PageHits: 504, PageMisses: 8, Retires: 127, Refreshes: 1, DataBusBusy: 2048, LastDataEnd: 3630, Rejections: 33, JitterCycles: 2112, Stalls: pinStalls(0, 3, 0, 0, 0, 0, 17, 762, 800, 0, 0)}},
	"natural/outstanding1/copy/PI/sev=3":   {5242, 1024, 1024, "39.0690576116", rdram.Stats{Activates: 10, Precharges: 4, Reads: 256, Writes: 256, PageHits: 504, PageMisses: 8, Retires: 127, Refreshes: 2, DataBusBusy: 2048, LastDataEnd: 5242, Rejections: 33, JitterCycles: 2112, Stalls: pinStalls(0, 80, 0, 0, 0, 0, 88, 708, 2318, 0, 0)}},
	"natural/writealloc/copy/PI/sev=3":     {4955, 1024, 1536, "41.3319878910", rdram.Stats{Activates: 10, Precharges: 4, Reads: 512, Writes: 256, PageHits: 760, PageMisses: 8, Retires: 127, Refreshes: 2, DataBusBusy: 3072, LastDataEnd: 4955, Rejections: 48, JitterCycles: 3089, Stalls: pinStalls(0, 2, 0, 0, 0, 0, 11, 762, 1108, 0, 0)}},
	"natural/cache2way/copy/PI/sev=3":      {4746, 1024, 1536, "43.1521281079", rdram.Stats{Activates: 10, Precharges: 4, Reads: 512, Writes: 256, PageHits: 760, PageMisses: 8, Refreshes: 2, DataBusBusy: 3072, LastDataEnd: 4746, Rejections: 48, JitterCycles: 3085, Stalls: pinStalls(0, 9, 0, 0, 0, 0, 17, 0, 1648, 0, 0)}},
	"conventional/daxpy/CLI/sev=0":         {6414, 1536, 1536, "47.8952291862", rdram.Stats{Activates: 384, Precharges: 384, Reads: 512, Writes: 256, PageHits: 384, PageMisses: 384, Retires: 127, DataBusBusy: 3072, LastDataEnd: 6414, Stalls: pinStalls(0, 0, 0, 0, 0, 768, 1419, 762, 393, 0, 0)}},
	"natural/closed/daxpy/CLI/sev=0":       {6414, 1536, 1536, "47.8952291862", rdram.Stats{Activates: 384, Precharges: 384, Reads: 512, Writes: 256, PageHits: 384, PageMisses: 384, Retires: 127, DataBusBusy: 3072, LastDataEnd: 6414, Stalls: pinStalls(0, 0, 0, 0, 0, 768, 1419, 762, 393, 0, 0)}},
	"natural/open/daxpy/CLI/sev=0":         {6219, 1536, 1536, "49.3970091655", rdram.Stats{Activates: 256, Precharges: 248, Reads: 512, Writes: 256, PageHits: 512, PageMisses: 256, PageConflicts: 248, Retires: 127, DataBusBusy: 3072, LastDataEnd: 6219, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 1251, 18, 1878, 0, 0)}},
	"natural/outstanding1/daxpy/CLI/sev=0": {10752, 1536, 1536, "28.5714285714", rdram.Stats{Activates: 384, Precharges: 384, Reads: 512, Writes: 256, PageHits: 384, PageMisses: 384, Retires: 127, DataBusBusy: 3072, LastDataEnd: 10752, Stalls: pinStalls(0, 0, 0, 0, 0, 768, 4224, 0, 2688, 0, 0)}},
	"natural/writealloc/daxpy/CLI/sev=0":   {6448, 1536, 2048, "47.6426799007", rdram.Stats{Activates: 512, Precharges: 512, Reads: 768, Writes: 256, PageHits: 512, PageMisses: 512, Retires: 127, DataBusBusy: 4096, LastDataEnd: 6448, Stalls: pinStalls(0, 0, 0, 0, 0, 12, 795, 127, 1418, 0, 0)}},
	"natural/cache2way/daxpy/CLI/sev=0":    {5124, 1536, 1536, "59.9531615925", rdram.Stats{Activates: 384, Precharges: 384, Reads: 512, Writes: 256, PageHits: 384, PageMisses: 384, DataBusBusy: 3072, LastDataEnd: 5124, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 900, 0, 1152, 0, 0)}},
	"conventional/daxpy/CLI/sev=3":         {7367, 1536, 1536, "41.6994706122", rdram.Stats{Activates: 387, Precharges: 387, Reads: 512, Writes: 256, PageHits: 384, PageMisses: 384, Retires: 127, Refreshes: 3, DataBusBusy: 3072, LastDataEnd: 7367, Rejections: 48, JitterCycles: 4668, Stalls: pinStalls(0, 0, 0, 0, 0, 16, 948, 744, 2587, 0, 0)}},
	"natural/closed/daxpy/CLI/sev=3":       {7328, 1536, 1536, "41.9213973799", rdram.Stats{Activates: 387, Precharges: 387, Reads: 512, Writes: 256, PageHits: 384, PageMisses: 384, Retires: 127, Refreshes: 3, DataBusBusy: 3072, LastDataEnd: 7328, Rejections: 48, JitterCycles: 4668, Stalls: pinStalls(0, 0, 0, 0, 0, 24, 933, 762, 2537, 0, 0)}},
	"natural/open/daxpy/CLI/sev=3":         {8508, 1536, 1536, "36.1071932299", rdram.Stats{Activates: 260, Precharges: 252, Reads: 512, Writes: 256, PageHits: 512, PageMisses: 256, PageConflicts: 244, Retires: 127, Refreshes: 4, DataBusBusy: 3072, LastDataEnd: 8508, Rejections: 48, JitterCycles: 5164, Stalls: pinStalls(0, 0, 0, 0, 53, 183, 1197, 53, 3950, 0, 0)}},
	"natural/outstanding1/daxpy/CLI/sev=3": {13958, 1536, 1536, "22.0088837942", rdram.Stats{Activates: 390, Precharges: 390, Reads: 512, Writes: 256, PageHits: 384, PageMisses: 384, Retires: 127, Refreshes: 6, DataBusBusy: 3072, LastDataEnd: 13958, Rejections: 48, JitterCycles: 4668, Stalls: pinStalls(0, 100, 0, 0, 0, 149, 4224, 0, 6413, 0, 0)}},
	"natural/writealloc/daxpy/CLI/sev=3":   {7408, 1536, 2048, "41.4686825054", rdram.Stats{Activates: 515, Precharges: 515, Reads: 768, Writes: 256, PageHits: 512, PageMisses: 512, Retires: 127, Refreshes: 3, DataBusBusy: 4096, LastDataEnd: 7408, Rejections: 64, JitterCycles: 6270, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 79, 714, 2519, 0, 0)}},
	"natural/cache2way/daxpy/CLI/sev=3":    {7455, 1536, 1536, "41.2072434608", rdram.Stats{Activates: 387, Precharges: 387, Reads: 512, Writes: 256, PageHits: 384, PageMisses: 384, Refreshes: 3, DataBusBusy: 3072, LastDataEnd: 7455, Rejections: 48, JitterCycles: 4712, Stalls: pinStalls(0, 0, 0, 0, 0, 28, 951, 0, 3404, 0, 0)}},
	"conventional/daxpy/PI/sev=0":          {3854, 1536, 1536, "79.7093928386", rdram.Stats{Activates: 8, Reads: 512, Writes: 256, PageHits: 760, PageMisses: 8, Retires: 127, DataBusBusy: 3072, LastDataEnd: 3854, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 11, 762, 9, 0, 0)}},
	"natural/closed/daxpy/PI/sev=0":        {8646, 1536, 1536, "35.5308813324", rdram.Stats{Activates: 384, Precharges: 384, Reads: 512, Writes: 256, PageHits: 384, PageMisses: 384, Retires: 127, DataBusBusy: 3072, LastDataEnd: 8646, Stalls: pinStalls(0, 0, 0, 0, 0, 768, 2535, 762, 1509, 0, 0)}},
	"natural/open/daxpy/PI/sev=0":          {3863, 1536, 1536, "79.5236862542", rdram.Stats{Activates: 8, Reads: 512, Writes: 256, PageHits: 760, PageMisses: 8, Retires: 127, DataBusBusy: 3072, LastDataEnd: 3863, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 11, 762, 18, 0, 0)}},
	"natural/outstanding1/daxpy/PI/sev=0":  {5848, 1536, 1536, "52.5307797538", rdram.Stats{Activates: 8, Reads: 512, Writes: 256, PageHits: 760, PageMisses: 8, Retires: 127, DataBusBusy: 3072, LastDataEnd: 5848, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 88, 744, 1944, 0, 0)}},
	"natural/writealloc/daxpy/PI/sev=0":    {4888, 1536, 2048, "62.8477905074", rdram.Stats{Activates: 8, Reads: 768, Writes: 256, PageHits: 1016, PageMisses: 8, Retires: 127, DataBusBusy: 4096, LastDataEnd: 4888, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 11, 762, 19, 0, 0)}},
	"natural/cache2way/daxpy/PI/sev=0":     {3760, 1536, 1536, "81.7021276596", rdram.Stats{Activates: 8, Reads: 512, Writes: 256, PageHits: 760, PageMisses: 8, DataBusBusy: 3072, LastDataEnd: 3760, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 32, 0, 656, 0, 0)}},
	"conventional/daxpy/PI/sev=3":          {4922, 1536, 1536, "62.4136529866", rdram.Stats{Activates: 10, Precharges: 4, Reads: 512, Writes: 256, PageHits: 760, PageMisses: 8, Retires: 127, Refreshes: 2, DataBusBusy: 3072, LastDataEnd: 4922, Rejections: 48, JitterCycles: 3085, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 11, 762, 1077, 0, 0)}},
	"natural/closed/daxpy/PI/sev=3":        {8994, 1536, 1536, "34.1561040694", rdram.Stats{Activates: 388, Precharges: 388, Reads: 512, Writes: 256, PageHits: 384, PageMisses: 384, Retires: 127, Refreshes: 4, DataBusBusy: 3072, LastDataEnd: 8994, Rejections: 48, JitterCycles: 4613, Stalls: pinStalls(0, 0, 0, 0, 0, 77, 1146, 762, 3937, 0, 0)}},
	"natural/open/daxpy/PI/sev=3":          {5012, 1536, 1536, "61.2928970471", rdram.Stats{Activates: 10, Precharges: 4, Reads: 512, Writes: 256, PageHits: 760, PageMisses: 8, Retires: 127, Refreshes: 2, DataBusBusy: 3072, LastDataEnd: 5012, Rejections: 48, JitterCycles: 3085, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 11, 762, 1167, 0, 0)}},
	"natural/outstanding1/daxpy/PI/sev=3":  {8147, 1536, 1536, "37.7071314594", rdram.Stats{Activates: 11, Precharges: 6, Reads: 512, Writes: 256, PageHits: 760, PageMisses: 8, Retires: 127, Refreshes: 3, DataBusBusy: 3072, LastDataEnd: 8147, Rejections: 48, JitterCycles: 3085, Stalls: pinStalls(0, 113, 0, 0, 0, 29, 88, 706, 4139, 0, 0)}},
	"natural/writealloc/daxpy/PI/sev=3":    {6296, 1536, 2048, "48.7928843710", rdram.Stats{Activates: 11, Precharges: 6, Reads: 768, Writes: 256, PageHits: 1016, PageMisses: 8, Retires: 127, Refreshes: 3, DataBusBusy: 4096, LastDataEnd: 6296, Rejections: 64, JitterCycles: 4037, Stalls: pinStalls(0, 2, 0, 0, 0, 0, 11, 762, 1425, 0, 0)}},
	"natural/cache2way/daxpy/PI/sev=3":     {5341, 1536, 1536, "57.5173188541", rdram.Stats{Activates: 10, Precharges: 4, Reads: 512, Writes: 256, PageHits: 760, PageMisses: 8, Refreshes: 2, DataBusBusy: 3072, LastDataEnd: 5341, Rejections: 48, JitterCycles: 3085, Stalls: pinStalls(0, 12, 0, 0, 0, 0, 32, 0, 2225, 0, 0)}},
	"conventional/hydro/CLI/sev=0":         {10814, 2048, 2056, "37.8768263362", rdram.Stats{Activates: 514, Precharges: 514, Reads: 772, Writes: 256, PageHits: 514, PageMisses: 514, Retires: 128, DataBusBusy: 4112, LastDataEnd: 10814, Stalls: pinStalls(0, 0, 0, 0, 0, 1542, 2838, 0, 2322, 0, 0)}},
	"natural/closed/hydro/CLI/sev=0":       {13878, 2048, 2056, "29.5143392420", rdram.Stats{Activates: 514, Precharges: 514, Reads: 772, Writes: 256, PageHits: 514, PageMisses: 514, Retires: 128, DataBusBusy: 4112, LastDataEnd: 13878, Stalls: pinStalls(0, 0, 0, 0, 0, 2310, 3607, 0, 3849, 0, 0)}},
	"natural/open/hydro/CLI/sev=0":         {13142, 2048, 2056, "31.1672500380", rdram.Stats{Activates: 385, Precharges: 377, Reads: 772, Writes: 256, PageHits: 643, PageMisses: 385, PageConflicts: 377, Retires: 128, DataBusBusy: 4112, LastDataEnd: 13142, Stalls: pinStalls(0, 0, 0, 0, 2034, 0, 4180, 0, 2816, 0, 0)}},
	"natural/outstanding1/hydro/CLI/sev=0": {15934, 2048, 2056, "25.7060374043", rdram.Stats{Activates: 514, Precharges: 514, Reads: 772, Writes: 256, PageHits: 514, PageMisses: 514, Retires: 128, DataBusBusy: 4112, LastDataEnd: 15934, Stalls: pinStalls(0, 0, 0, 0, 0, 2310, 5654, 0, 3858, 0, 0)}},
	"natural/writealloc/hydro/CLI/sev=0":   {14160, 2048, 2568, "28.9265536723", rdram.Stats{Activates: 642, Precharges: 642, Reads: 1028, Writes: 256, PageHits: 642, PageMisses: 642, Retires: 127, DataBusBusy: 5136, LastDataEnd: 14160, Stalls: pinStalls(0, 0, 0, 0, 0, 1548, 3237, 762, 3477, 0, 0)}},
	"natural/cache2way/hydro/CLI/sev=0":    {11024, 2048, 2052, "37.1552975327", rdram.Stats{Activates: 513, Precharges: 513, Reads: 770, Writes: 256, PageHits: 513, PageMisses: 513, DataBusBusy: 4104, LastDataEnd: 11024, Stalls: pinStalls(0, 0, 0, 0, 0, 768, 2696, 0, 3456, 0, 0)}},
	"conventional/hydro/CLI/sev=3":         {12608, 2048, 2056, "32.4873096447", rdram.Stats{Activates: 520, Precharges: 520, Reads: 772, Writes: 256, PageHits: 514, PageMisses: 514, Retires: 128, Refreshes: 6, DataBusBusy: 4112, LastDataEnd: 12608, Rejections: 64, JitterCycles: 6291, Stalls: pinStalls(0, 0, 0, 0, 0, 439, 2444, 1, 5612, 0, 0)}},
	"natural/closed/hydro/CLI/sev=3":       {16519, 2048, 2056, "24.7956898117", rdram.Stats{Activates: 522, Precharges: 522, Reads: 772, Writes: 256, PageHits: 514, PageMisses: 514, Retires: 128, Refreshes: 8, DataBusBusy: 4112, LastDataEnd: 16519, Rejections: 64, JitterCycles: 6291, Stalls: pinStalls(0, 0, 0, 0, 0, 611, 3053, 1, 8742, 0, 0)}},
	"natural/open/hydro/CLI/sev=3":         {17705, 2048, 2056, "23.1347077097", rdram.Stats{Activates: 394, Precharges: 386, Reads: 772, Writes: 256, PageHits: 642, PageMisses: 386, PageConflicts: 370, Retires: 128, Refreshes: 8, DataBusBusy: 4112, LastDataEnd: 17705, Rejections: 64, JitterCycles: 7239, Stalls: pinStalls(0, 3, 0, 0, 1010, 1384, 4076, 0, 7120, 0, 0)}},
	"natural/outstanding1/hydro/CLI/sev=3": {19572, 2048, 2056, "20.9278561210", rdram.Stats{Activates: 528, Precharges: 528, Reads: 772, Writes: 256, PageHits: 514, PageMisses: 514, Retires: 128, Refreshes: 14, DataBusBusy: 4112, LastDataEnd: 19572, Rejections: 64, JitterCycles: 6291, Stalls: pinStalls(0, 140, 0, 0, 0, 791, 5654, 0, 8875, 0, 0)}},
	"natural/writealloc/hydro/CLI/sev=3":   {16704, 2048, 2568, "24.5210727969", rdram.Stats{Activates: 650, Precharges: 650, Reads: 1028, Writes: 256, PageHits: 642, PageMisses: 642, Retires: 127, Refreshes: 8, DataBusBusy: 5136, LastDataEnd: 16704, Rejections: 78, JitterCycles: 7943, Stalls: pinStalls(0, 0, 0, 0, 0, 143, 2428, 744, 8253, 0, 0)}},
	"natural/cache2way/hydro/CLI/sev=3":    {14026, 2048, 2052, "29.2029088835", rdram.Stats{Activates: 519, Precharges: 519, Reads: 770, Writes: 256, PageHits: 513, PageMisses: 513, Refreshes: 6, DataBusBusy: 4104, LastDataEnd: 14026, Rejections: 64, JitterCycles: 6298, Stalls: pinStalls(0, 0, 0, 0, 0, 46, 2318, 0, 7558, 0, 0)}},
	"conventional/hydro/PI/sev=0":          {4900, 2048, 2056, "83.5918367347", rdram.Stats{Activates: 13, Precharges: 5, Reads: 772, Writes: 256, PageHits: 1015, PageMisses: 13, PageConflicts: 5, Retires: 128, DataBusBusy: 4112, LastDataEnd: 4900, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 11, 768, 9, 0, 0)}},
	"natural/closed/hydro/PI/sev=0":        {10552, 2048, 2056, "38.8172858226", rdram.Stats{Activates: 514, Precharges: 514, Reads: 772, Writes: 256, PageHits: 514, PageMisses: 514, Retires: 128, DataBusBusy: 4112, LastDataEnd: 10552, Stalls: pinStalls(0, 0, 0, 0, 0, 774, 2199, 768, 2699, 0, 0)}},
	"natural/open/hydro/PI/sev=0":          {5278, 2048, 2056, "77.6051534672", rdram.Stats{Activates: 13, Precharges: 5, Reads: 772, Writes: 256, PageHits: 1015, PageMisses: 13, PageConflicts: 5, Retires: 128, DataBusBusy: 4112, LastDataEnd: 5278, Stalls: pinStalls(0, 0, 0, 0, 6, 0, 80, 756, 324, 0, 0)}},
	"natural/outstanding1/hydro/PI/sev=0":  {8163, 2048, 2056, "50.1776307730", rdram.Stats{Activates: 13, Precharges: 5, Reads: 772, Writes: 256, PageHits: 1015, PageMisses: 13, PageConflicts: 5, Retires: 128, DataBusBusy: 4112, LastDataEnd: 8163, Stalls: pinStalls(0, 0, 0, 0, 50, 0, 143, 744, 3114, 0, 0)}},
	"natural/writealloc/hydro/PI/sev=0":    {6293, 2048, 2568, "65.0881932306", rdram.Stats{Activates: 13, Precharges: 5, Reads: 1028, Writes: 256, PageHits: 1271, PageMisses: 13, PageConflicts: 5, Retires: 127, DataBusBusy: 5136, LastDataEnd: 6293, Stalls: pinStalls(0, 0, 0, 0, 2, 0, 63, 750, 342, 0, 0)}},
	"natural/cache2way/hydro/PI/sev=0":     {5050, 2048, 2052, "81.1089108911", rdram.Stats{Activates: 15, Precharges: 7, Reads: 770, Writes: 256, PageHits: 1011, PageMisses: 15, PageConflicts: 7, DataBusBusy: 4104, LastDataEnd: 5050, Stalls: pinStalls(0, 0, 0, 0, 10, 0, 90, 0, 846, 0, 0)}},
	"conventional/hydro/PI/sev=3":          {6391, 2048, 2056, "64.0901267407", rdram.Stats{Activates: 16, Precharges: 9, Reads: 772, Writes: 256, PageHits: 1015, PageMisses: 13, PageConflicts: 3, Retires: 128, Refreshes: 3, DataBusBusy: 4112, LastDataEnd: 6391, Rejections: 64, JitterCycles: 4414, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 11, 768, 1500, 0, 0)}},
	"natural/closed/hydro/PI/sev=3":        {13506, 2048, 2056, "30.3272619576", rdram.Stats{Activates: 520, Precharges: 520, Reads: 772, Writes: 256, PageHits: 514, PageMisses: 514, Retires: 128, Refreshes: 6, DataBusBusy: 4112, LastDataEnd: 13506, Rejections: 64, JitterCycles: 6569, Stalls: pinStalls(0, 0, 0, 0, 0, 60, 1540, 768, 7026, 0, 0)}},
	"natural/open/hydro/PI/sev=3":          {7341, 2048, 2056, "55.7962130500", rdram.Stats{Activates: 16, Precharges: 9, Reads: 772, Writes: 256, PageHits: 1015, PageMisses: 13, PageConflicts: 3, Retires: 128, Refreshes: 3, DataBusBusy: 4112, LastDataEnd: 7341, Rejections: 64, JitterCycles: 4414, Stalls: pinStalls(0, 16, 0, 0, 10, 13, 60, 768, 2362, 0, 0)}},
	"natural/outstanding1/hydro/PI/sev=3":  {11519, 2048, 2056, "35.5586422433", rdram.Stats{Activates: 21, Precharges: 14, Reads: 772, Writes: 256, PageHits: 1012, PageMisses: 16, PageConflicts: 4, Retires: 128, Refreshes: 5, DataBusBusy: 4112, LastDataEnd: 11519, Rejections: 64, JitterCycles: 4442, Stalls: pinStalls(0, 156, 0, 0, 40, 74, 176, 708, 6253, 0, 0)}},
	"natural/writealloc/hydro/PI/sev=3":    {8861, 2048, 2568, "46.2250310349", rdram.Stats{Activates: 21, Precharges: 13, Reads: 1028, Writes: 256, PageHits: 1267, PageMisses: 17, PageConflicts: 5, Retires: 127, Refreshes: 4, DataBusBusy: 5136, LastDataEnd: 8861, Rejections: 78, JitterCycles: 5658, Stalls: pinStalls(0, 9, 0, 0, 0, 86, 83, 738, 2809, 0, 0)}},
	"natural/cache2way/hydro/PI/sev=3":     {7384, 2048, 2052, "55.4712892741", rdram.Stats{Activates: 19, Precharges: 11, Reads: 770, Writes: 256, PageHits: 1010, PageMisses: 16, PageConflicts: 5, Refreshes: 3, DataBusBusy: 4104, LastDataEnd: 7384, Rejections: 64, JitterCycles: 4467, Stalls: pinStalls(0, 12, 0, 0, 10, 5, 86, 0, 3167, 0, 0)}},
	"conventional/vaxpy/CLI/sev=0":         {7438, 2048, 2048, "55.0685668190", rdram.Stats{Activates: 512, Precharges: 512, Reads: 768, Writes: 256, PageHits: 512, PageMisses: 512, Retires: 127, DataBusBusy: 4096, LastDataEnd: 7438, Stalls: pinStalls(0, 0, 0, 0, 0, 768, 1419, 762, 393, 0, 0)}},
	"natural/closed/vaxpy/CLI/sev=0":       {7438, 2048, 2048, "55.0685668190", rdram.Stats{Activates: 512, Precharges: 512, Reads: 768, Writes: 256, PageHits: 512, PageMisses: 512, Retires: 127, DataBusBusy: 4096, LastDataEnd: 7438, Stalls: pinStalls(0, 0, 0, 0, 0, 768, 1419, 762, 393, 0, 0)}},
	"natural/open/vaxpy/CLI/sev=0":         {8019, 2048, 2048, "51.0786881157", rdram.Stats{Activates: 384, Precharges: 376, Reads: 768, Writes: 256, PageHits: 640, PageMisses: 384, PageConflicts: 376, Retires: 127, DataBusBusy: 4096, LastDataEnd: 8019, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 1271, 6, 2646, 0, 0)}},
	"natural/outstanding1/vaxpy/CLI/sev=0": {14336, 2048, 2048, "28.5714285714", rdram.Stats{Activates: 512, Precharges: 512, Reads: 768, Writes: 256, PageHits: 512, PageMisses: 512, Retires: 127, DataBusBusy: 4096, LastDataEnd: 14336, Stalls: pinStalls(0, 0, 0, 0, 0, 768, 5632, 0, 3840, 0, 0)}},
	"natural/writealloc/vaxpy/CLI/sev=0":   {7472, 2048, 2560, "54.8179871520", rdram.Stats{Activates: 640, Precharges: 640, Reads: 1024, Writes: 256, PageHits: 640, PageMisses: 640, Retires: 127, DataBusBusy: 5120, LastDataEnd: 7472, Stalls: pinStalls(0, 0, 0, 0, 0, 12, 1176, 0, 1164, 0, 0)}},
	"natural/cache2way/vaxpy/CLI/sev=0":    {9350, 2048, 2048, "43.8074866310", rdram.Stats{Activates: 512, Precharges: 512, Reads: 768, Writes: 256, PageHits: 512, PageMisses: 512, Retires: 123, DataBusBusy: 4096, LastDataEnd: 9350, Stalls: pinStalls(0, 0, 0, 0, 0, 1476, 2254, 0, 1524, 0, 0)}},
	"conventional/vaxpy/CLI/sev=3":         {8898, 2048, 2048, "46.0328163632", rdram.Stats{Activates: 516, Precharges: 516, Reads: 768, Writes: 256, PageHits: 512, PageMisses: 512, Retires: 127, Refreshes: 4, DataBusBusy: 4096, LastDataEnd: 8898, Rejections: 64, JitterCycles: 6278, Stalls: pinStalls(0, 0, 0, 0, 0, 13, 949, 756, 3084, 0, 0)}},
	"natural/closed/vaxpy/CLI/sev=3":       {8837, 2048, 2048, "46.3505714609", rdram.Stats{Activates: 516, Precharges: 516, Reads: 768, Writes: 256, PageHits: 512, PageMisses: 512, Retires: 127, Refreshes: 4, DataBusBusy: 4096, LastDataEnd: 8837, Rejections: 64, JitterCycles: 6278, Stalls: pinStalls(0, 0, 0, 0, 0, 13, 930, 762, 3036, 0, 0)}},
	"natural/open/vaxpy/CLI/sev=3":         {10883, 2048, 2048, "37.6366810622", rdram.Stats{Activates: 389, Precharges: 381, Reads: 768, Writes: 256, PageHits: 640, PageMisses: 384, PageConflicts: 371, Retires: 127, Refreshes: 5, DataBusBusy: 4096, LastDataEnd: 10883, Rejections: 64, JitterCycles: 7289, Stalls: pinStalls(0, 0, 0, 0, 71, 258, 1220, 41, 5197, 0, 0)}},
	"natural/outstanding1/vaxpy/CLI/sev=3": {18958, 2048, 2048, "21.6056546049", rdram.Stats{Activates: 526, Precharges: 526, Reads: 768, Writes: 256, PageHits: 512, PageMisses: 512, Retires: 127, Refreshes: 14, DataBusBusy: 4096, LastDataEnd: 18958, Rejections: 64, JitterCycles: 6278, Stalls: pinStalls(0, 140, 0, 0, 0, 236, 5632, 0, 8854, 0, 0)}},
	"natural/writealloc/vaxpy/CLI/sev=3":   {8928, 2048, 2560, "45.8781362007", rdram.Stats{Activates: 644, Precharges: 644, Reads: 1024, Writes: 256, PageHits: 640, PageMisses: 640, Retires: 127, Refreshes: 4, DataBusBusy: 5120, LastDataEnd: 8928, Rejections: 78, JitterCycles: 7865, Stalls: pinStalls(0, 0, 0, 0, 0, 18, 89, 722, 2979, 0, 0)}},
	"natural/cache2way/vaxpy/CLI/sev=3":    {11830, 2048, 2048, "34.6238377008", rdram.Stats{Activates: 517, Precharges: 517, Reads: 768, Writes: 256, PageHits: 512, PageMisses: 512, Retires: 123, Refreshes: 5, DataBusBusy: 4096, LastDataEnd: 11830, Rejections: 64, JitterCycles: 6322, Stalls: pinStalls(0, 0, 0, 0, 0, 570, 2270, 0, 4894, 0, 0)}},
	"conventional/vaxpy/PI/sev=0":          {4890, 2048, 2048, "83.7627811861", rdram.Stats{Activates: 12, Precharges: 4, Reads: 768, Writes: 256, PageHits: 1012, PageMisses: 12, PageConflicts: 4, Retires: 127, DataBusBusy: 4096, LastDataEnd: 4890, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 11, 762, 21, 0, 0)}},
	"natural/closed/vaxpy/PI/sev=0":        {8678, 2048, 2048, "47.1998156257", rdram.Stats{Activates: 512, Precharges: 512, Reads: 768, Writes: 256, PageHits: 512, PageMisses: 512, Retires: 127, DataBusBusy: 4096, LastDataEnd: 8678, Stalls: pinStalls(0, 0, 0, 0, 0, 768, 1543, 762, 1509, 0, 0)}},
	"natural/open/vaxpy/PI/sev=0":          {4919, 2048, 2048, "83.2689571051", rdram.Stats{Activates: 12, Precharges: 4, Reads: 768, Writes: 256, PageHits: 1012, PageMisses: 12, PageConflicts: 4, Retires: 127, DataBusBusy: 4096, LastDataEnd: 4919, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 31, 750, 42, 0, 0)}},
	"natural/outstanding1/vaxpy/PI/sev=0":  {8108, 2048, 2048, "50.5180069068", rdram.Stats{Activates: 12, Precharges: 4, Reads: 768, Writes: 256, PageHits: 1012, PageMisses: 12, PageConflicts: 4, Retires: 127, DataBusBusy: 4096, LastDataEnd: 8108, Stalls: pinStalls(0, 0, 0, 0, 40, 0, 132, 744, 3096, 0, 0)}},
	"natural/writealloc/vaxpy/PI/sev=0":    {5944, 2048, 2560, "68.9098250336", rdram.Stats{Activates: 12, Precharges: 4, Reads: 1024, Writes: 256, PageHits: 1268, PageMisses: 12, PageConflicts: 4, Retires: 127, DataBusBusy: 5120, LastDataEnd: 5944, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 19, 762, 43, 0, 0)}},
	"natural/cache2way/vaxpy/PI/sev=0":     {4829, 2048, 2048, "84.8208738869", rdram.Stats{Activates: 13, Precharges: 5, Reads: 768, Writes: 256, PageHits: 1011, PageMisses: 13, PageConflicts: 5, DataBusBusy: 4096, LastDataEnd: 4829, Stalls: pinStalls(0, 0, 0, 0, 12, 0, 50, 0, 671, 0, 0)}},
	"conventional/vaxpy/PI/sev=3":          {6387, 2048, 2048, "64.1302646000", rdram.Stats{Activates: 15, Precharges: 9, Reads: 768, Writes: 256, PageHits: 1012, PageMisses: 12, PageConflicts: 3, Retires: 127, Refreshes: 3, DataBusBusy: 4096, LastDataEnd: 6387, Rejections: 64, JitterCycles: 4419, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 11, 762, 1518, 0, 0)}},
	"natural/closed/vaxpy/PI/sev=3":        {9310, 2048, 2048, "43.9957035446", rdram.Stats{Activates: 516, Precharges: 516, Reads: 768, Writes: 256, PageHits: 512, PageMisses: 512, Retires: 127, Refreshes: 4, DataBusBusy: 4096, LastDataEnd: 9310, Rejections: 64, JitterCycles: 6553, Stalls: pinStalls(0, 0, 0, 0, 0, 63, 1017, 762, 3372, 0, 0)}},
	"natural/open/vaxpy/PI/sev=3":          {6542, 2048, 2048, "62.6108223785", rdram.Stats{Activates: 15, Precharges: 9, Reads: 768, Writes: 256, PageHits: 1012, PageMisses: 12, PageConflicts: 3, Retires: 127, Refreshes: 3, DataBusBusy: 4096, LastDataEnd: 6542, Rejections: 64, JitterCycles: 4419, Stalls: pinStalls(0, 0, 0, 0, 0, 9, 31, 750, 1656, 0, 0)}},
	"natural/outstanding1/vaxpy/PI/sev=3":  {11464, 2048, 2048, "35.7292393580", rdram.Stats{Activates: 20, Precharges: 13, Reads: 768, Writes: 256, PageHits: 1009, PageMisses: 15, PageConflicts: 3, Retires: 127, Refreshes: 5, DataBusBusy: 4096, LastDataEnd: 11464, Rejections: 64, JitterCycles: 4434, Stalls: pinStalls(0, 159, 0, 0, 30, 84, 165, 694, 6236, 0, 0)}},
	"natural/writealloc/vaxpy/PI/sev=3":    {7947, 2048, 2560, "51.5414621870", rdram.Stats{Activates: 15, Precharges: 9, Reads: 1024, Writes: 256, PageHits: 1268, PageMisses: 12, PageConflicts: 3, Retires: 127, Refreshes: 3, DataBusBusy: 5120, LastDataEnd: 7947, Rejections: 78, JitterCycles: 5610, Stalls: pinStalls(0, 0, 0, 0, 0, 14, 29, 762, 2022, 0, 0)}},
	"natural/cache2way/vaxpy/PI/sev=3":     {6947, 2048, 2048, "58.9607024615", rdram.Stats{Activates: 16, Precharges: 10, Reads: 768, Writes: 256, PageHits: 1011, PageMisses: 13, PageConflicts: 4, Refreshes: 3, DataBusBusy: 4096, LastDataEnd: 6947, Rejections: 64, JitterCycles: 4426, Stalls: pinStalls(0, 15, 0, 0, 34, 4, 43, 0, 2755, 0, 0)}},
	"crisp/sequential/CLI/devices=1":       {54728, 24000, 24000, "87.7064756615", rdram.Stats{Activates: 6000, Precharges: 6000, Reads: 9038, Writes: 2962, PageHits: 6000, PageMisses: 6000, Retires: 1118, DataBusBusy: 48000, LastDataEnd: 54728, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 11, 6708, 9, 0, 0)}},
	"crisp/sequential/CLI/devices=8":       {54728, 24000, 24000, "87.7064756615", rdram.Stats{Activates: 6000, Precharges: 6000, Reads: 9038, Writes: 2962, PageHits: 6000, PageMisses: 6000, Retires: 1104, DataBusBusy: 48000, LastDataEnd: 54728, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 11, 6708, 9, 0, 0)}},
	"crisp/sequential/PI/devices=1":        {54944, 24000, 24000, "87.3616773442", rdram.Stats{Activates: 188, Precharges: 180, Reads: 9038, Writes: 2962, PageHits: 11812, PageMisses: 188, PageConflicts: 180, Retires: 1118, DataBusBusy: 48000, LastDataEnd: 54944, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 11, 6708, 225, 0, 0)}},
	"crisp/sequential/PI/devices=8":        {54890, 24000, 24000, "87.4476225178", rdram.Stats{Activates: 188, Precharges: 124, Reads: 9038, Writes: 2962, PageHits: 11812, PageMisses: 188, PageConflicts: 124, Retires: 1120, DataBusBusy: 48000, LastDataEnd: 54890, Stalls: pinStalls(0, 0, 0, 0, 0, 0, 11, 6708, 171, 0, 0)}},
	"crisp/random/CLI/devices=1":           {81992, 24000, 24000, "58.5422968094", rdram.Stats{Activates: 6000, Precharges: 6000, Reads: 9000, Writes: 3000, PageHits: 6000, PageMisses: 6000, Retires: 1116, DataBusBusy: 48000, LastDataEnd: 81992, Stalls: pinStalls(0, 0, 0, 0, 0, 4274, 12584, 5162, 11972, 0, 0)}},
	"crisp/random/CLI/devices=8":           {57462, 24000, 24000, "83.5334655947", rdram.Stats{Activates: 6000, Precharges: 6000, Reads: 9000, Writes: 3000, PageHits: 6000, PageMisses: 6000, Retires: 1133, DataBusBusy: 48000, LastDataEnd: 57462, Stalls: pinStalls(0, 0, 0, 0, 0, 196, 1311, 6529, 1426, 0, 0)}},
	"crisp/random/PI/devices=1":            {102298, 24000, 24000, "46.9217384504", rdram.Stats{Activates: 5995, Precharges: 5987, Reads: 9000, Writes: 3000, PageHits: 6005, PageMisses: 5995, PageConflicts: 5987, Retires: 1116, DataBusBusy: 48000, LastDataEnd: 102298, Stalls: pinStalls(0, 0, 0, 0, 5556, 0, 14301, 2676, 31765, 0, 0)}},
	"crisp/random/PI/devices=8":            {86130, 24000, 24000, "55.7297109021", rdram.Stats{Activates: 5994, Precharges: 5930, Reads: 9000, Writes: 3000, PageHits: 6006, PageMisses: 5994, PageConflicts: 5930, Retires: 1141, DataBusBusy: 48000, LastDataEnd: 86130, Stalls: pinStalls(0, 0, 0, 0, 798, 0, 5825, 3317, 28190, 0, 0)}},
	"crisp/hot-pages/CLI/devices=1":        {81908, 24000, 24000, "58.6023343263", rdram.Stats{Activates: 6000, Precharges: 6000, Reads: 9078, Writes: 2922, PageHits: 6000, PageMisses: 6000, Retires: 1117, DataBusBusy: 48000, LastDataEnd: 81908, Stalls: pinStalls(0, 0, 0, 0, 0, 4034, 12588, 5266, 12020, 0, 0)}},
	"crisp/hot-pages/CLI/devices=8":        {57708, 24000, 24000, "83.1773757538", rdram.Stats{Activates: 6000, Precharges: 6000, Reads: 9078, Writes: 2922, PageHits: 6000, PageMisses: 6000, Retires: 1100, DataBusBusy: 48000, LastDataEnd: 57708, Stalls: pinStalls(0, 0, 0, 0, 0, 170, 1407, 6525, 1606, 0, 0)}},
	"crisp/hot-pages/PI/devices=1":         {60798, 24000, 24000, "78.9499654594", rdram.Stats{Activates: 1119, Precharges: 1111, Reads: 9078, Writes: 2922, PageHits: 10881, PageMisses: 1119, PageConflicts: 1111, Retires: 1117, DataBusBusy: 48000, LastDataEnd: 60798, Stalls: pinStalls(0, 0, 0, 0, 590, 0, 2268, 6397, 3543, 0, 0)}},
	"crisp/hot-pages/PI/devices=8":         {56186, 24000, 24000, "85.4305342968", rdram.Stats{Activates: 657, Precharges: 593, Reads: 9078, Writes: 2922, PageHits: 11343, PageMisses: 657, PageConflicts: 593, Retires: 1120, DataBusBusy: 48000, LastDataEnd: 56186, Stalls: pinStalls(0, 0, 0, 0, 66, 0, 304, 6650, 1166, 0, 0)}},
}
