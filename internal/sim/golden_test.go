package sim

import (
	"fmt"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/cache"
	"rdramstream/internal/smc"
	"rdramstream/internal/stream"
)

// TestGoldenParity pins the simulator's results to values captured before
// the controllers were ported onto the shared engine layer: every kernel ×
// scheme × controller-variant must reproduce its pre-refactor Cycles,
// UsefulWords, and PercentPeak bit for bit (PercentPeak compared through
// the same %.10f formatting the capture used). Any change here means the
// refactor altered simulated behaviour, not just code structure.
func TestGoldenParity(t *testing.T) {
	for _, g := range goldenRows {
		t.Run(fmt.Sprintf("%s/%s/%s", g.kernel, g.scheme, g.variant), func(t *testing.T) {
			sc, err := g.scenario()
			if err != nil {
				t.Fatal(err)
			}
			out, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Verified {
				t.Error("result not verified")
			}
			if out.Cycles != g.cycles {
				t.Errorf("Cycles = %d, golden %d", out.Cycles, g.cycles)
			}
			if out.UsefulWords != g.useful {
				t.Errorf("UsefulWords = %d, golden %d", out.UsefulWords, g.useful)
			}
			if got := fmt.Sprintf("%.10f", out.PercentPeak); got != g.percentPeak {
				t.Errorf("PercentPeak = %s, golden %s", got, g.percentPeak)
			}
		})
	}
}

// goldenRow is one pinned kernel × scheme × controller-variant result.
type goldenRow struct {
	kernel, scheme, variant string
	cycles, useful          int64
	percentPeak             string
}

// goldenRows are TestGoldenParity's pinned results.
var goldenRows = []goldenRow{
	{"copy", "CLI", "natural", 3598, 1024, "56.9205113952"},
	{"copy", "CLI", "natural+wa", 5410, 1024, "37.8558225508"},
	{"copy", "CLI", "natural+cache", 4628, 1024, "44.2523768366"},
	{"copy", "CLI", "smc", 2402, 1024, "85.2622814321"},
	{"copy", "CLI", "smc+spec", 2402, 1024, "85.2622814321"},
	{"copy", "CLI", "smc+bankaware", 2838, 1024, "72.1634954193"},
	{"copy", "CLI", "smc+hitfirst", 2430, 1024, "84.2798353909"},
	{"copy", "PI", "natural", 2863, 1024, "71.5333566189"},
	{"copy", "PI", "natural+wa", 3884, 1024, "52.7291452111"},
	{"copy", "PI", "natural+cache", 3285, 1024, "62.3439878234"},
	{"copy", "PI", "smc", 2134, 1024, "95.9700093721"},
	{"copy", "PI", "smc+spec", 2134, 1024, "95.9700093721"},
	{"copy", "PI", "smc+bankaware", 2194, 1024, "93.3454876937"},
	{"copy", "PI", "smc+hitfirst", 2158, 1024, "94.9026876738"},
	{"daxpy", "CLI", "natural", 6414, 1536, "47.8952291862"},
	{"daxpy", "CLI", "natural+wa", 6448, 1536, "47.6426799007"},
	{"daxpy", "CLI", "natural+cache", 5124, 1536, "59.9531615925"},
	{"daxpy", "CLI", "smc", 3698, 1536, "83.0719307734"},
	{"daxpy", "CLI", "smc+spec", 3698, 1536, "83.0719307734"},
	{"daxpy", "CLI", "smc+bankaware", 3686, 1536, "83.3423765600"},
	{"daxpy", "CLI", "smc+hitfirst", 3602, 1536, "85.2859522488"},
	{"daxpy", "PI", "natural", 3863, 1536, "79.5236862542"},
	{"daxpy", "PI", "natural+wa", 4888, 1536, "62.8477905074"},
	{"daxpy", "PI", "natural+cache", 3760, 1536, "81.7021276596"},
	{"daxpy", "PI", "smc", 3205, 1536, "95.8502340094"},
	{"daxpy", "PI", "smc+spec", 3205, 1536, "95.8502340094"},
	{"daxpy", "PI", "smc+bankaware", 3309, 1536, "92.8377153218"},
	{"daxpy", "PI", "smc+hitfirst", 3309, 1536, "92.8377153218"},
	{"hydro", "CLI", "natural", 13878, 2048, "29.5143392420"},
	{"hydro", "CLI", "natural+wa", 14160, 2048, "28.9265536723"},
	{"hydro", "CLI", "natural+cache", 11024, 2048, "37.1552975327"},
	{"hydro", "CLI", "smc", 4785, 2048, "85.6008359457"},
	{"hydro", "CLI", "smc+spec", 4785, 2048, "85.6008359457"},
	{"hydro", "CLI", "smc+bankaware", 4811, 2048, "85.1382249013"},
	{"hydro", "CLI", "smc+hitfirst", 4801, 2048, "85.3155592585"},
	{"hydro", "PI", "natural", 5278, 2048, "77.6051534672"},
	{"hydro", "PI", "natural+wa", 6293, 2048, "65.0881932306"},
	{"hydro", "PI", "natural+cache", 5050, 2048, "81.1089108911"},
	{"hydro", "PI", "smc", 4287, 2048, "95.5446699324"},
	{"hydro", "PI", "smc+spec", 4287, 2048, "95.5446699324"},
	{"hydro", "PI", "smc+bankaware", 4439, 2048, "92.2730344672"},
	{"hydro", "PI", "smc+hitfirst", 4433, 2048, "92.3979246560"},
	{"vaxpy", "CLI", "natural", 7438, 2048, "55.0685668190"},
	{"vaxpy", "CLI", "natural+wa", 7472, 2048, "54.8179871520"},
	{"vaxpy", "CLI", "natural+cache", 9350, 2048, "43.8074866310"},
	{"vaxpy", "CLI", "smc", 4545, 2048, "90.1210121012"},
	{"vaxpy", "CLI", "smc+spec", 4545, 2048, "90.1210121012"},
	{"vaxpy", "CLI", "smc+bankaware", 4563, 2048, "89.7655051501"},
	{"vaxpy", "CLI", "smc+hitfirst", 4571, 2048, "89.6084007876"},
	{"vaxpy", "PI", "natural", 4919, 2048, "83.2689571051"},
	{"vaxpy", "PI", "natural+wa", 5944, 2048, "68.9098250336"},
	{"vaxpy", "PI", "natural+cache", 4829, 2048, "84.8208738869"},
	{"vaxpy", "PI", "smc", 4301, 2048, "95.2336665892"},
	{"vaxpy", "PI", "smc+spec", 4301, 2048, "95.2336665892"},
	{"vaxpy", "PI", "smc+bankaware", 4473, 2048, "91.5716521350"},
	{"vaxpy", "PI", "smc+hitfirst", 4449, 2048, "92.0656327265"},
}

// scenario builds the row's scenario.
func (g goldenRow) scenario() (Scenario, error) {
	sc := Scenario{
		KernelName: g.kernel, N: 512,
		Placement: stream.Staggered,
		FIFODepth: 32, Seed: 7,
	}
	if g.scheme == "PI" {
		sc.Scheme = addrmap.PI
	}
	switch g.variant {
	case "natural":
		sc.Mode = NaturalOrder
	case "natural+wa":
		sc.Mode = NaturalOrder
		sc.WriteAllocate = true
	case "natural+cache":
		sc.Mode = NaturalOrder
		sc.Cache = &cache.Config{SizeWords: 2048, LineWords: 4, Ways: 2}
	case "smc":
		sc.Mode = SMC
	case "smc+spec":
		sc.Mode = SMC
		sc.SpeculateActivate = true
	case "smc+bankaware":
		sc.Mode = SMC
		sc.Policy = smc.BankAware
	case "smc+hitfirst":
		sc.Mode = SMC
		sc.Policy = smc.HitFirst
	default:
		return Scenario{}, fmt.Errorf("unknown variant %q", g.variant)
	}
	return sc, nil
}
