package workload

import (
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/engine"
	"rdramstream/internal/rdram"
)

func channel(devices int) rdram.Config {
	cfg := rdram.DefaultConfig()
	cfg.Geometry.Banks *= devices
	cfg.Geometry.DevicesOnChannel = devices
	return cfg
}

func run(t *testing.T, devCfg rdram.Config, cfg Config) engine.Result {
	t.Helper()
	if cfg.LineWords == 0 {
		cfg.LineWords = 4
	}
	if cfg.Requests == 0 {
		cfg.Requests = 4000
	}
	if cfg.ReadFraction == 0 {
		cfg.ReadFraction = 0.75
	}
	dev := rdram.NewDevice(devCfg)
	res, err := Run(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every line a generated workload moves is demanded.
	if res.UsefulWords != res.TransferredWords || res.TransferredWords != res.Device.PacketCount()*rdram.WordsPerPacket {
		t.Errorf("useful %d, transferred %d words for %d packets", res.UsefulWords, res.TransferredWords, res.Device.PacketCount())
	}
	return res
}

func TestPatternStrings(t *testing.T) {
	if Sequential.String() != "sequential" || RandomUniform.String() != "random" || HotPages.String() != "hot-pages" {
		t.Error("pattern names wrong")
	}
	if Pattern(9).String() == "" {
		t.Error("unknown pattern should render")
	}
}

func TestValidation(t *testing.T) {
	dev := rdram.NewDevice(rdram.DefaultConfig())
	bad := []Config{
		{Requests: 0, LineWords: 4},
		{Requests: 10, LineWords: 3},
		{Requests: 10, LineWords: 4, ReadFraction: 1.5},
	}
	for i, cfg := range bad {
		if _, err := Run(dev, cfg); err != nil {
			continue
		}
		t.Errorf("case %d: expected error", i)
	}
}

func TestSequentialPIRunsNearPeak(t *testing.T) {
	// A pure sequential sweep with an open-page policy is the best case:
	// page hits dominate and the bus streams.
	res := run(t, rdram.DefaultConfig(), Config{Pattern: Sequential, Scheme: addrmap.PI, ReadFraction: 1})
	if res.PercentPeak < 90 {
		t.Errorf("sequential PI = %.1f%%, want near peak", res.PercentPeak)
	}
	if res.Device.HitRate() < 0.9 {
		t.Errorf("hit rate = %.2f", res.Device.HitRate())
	}
}

func TestRandomSingleDeviceIsMediocre(t *testing.T) {
	// Uniform random lines on one device: every access is a page miss and
	// consecutive ACTs often hit t_RR/t_RC — well below peak.
	res := run(t, rdram.DefaultConfig(), Config{Pattern: RandomUniform, Scheme: addrmap.CLI})
	if res.PercentPeak > 85 {
		t.Errorf("random single-device = %.1f%%, expected clearly below peak", res.PercentPeak)
	}
	if res.Device.HitRate() > 0.6 {
		t.Errorf("random hit rate = %.2f, expected low", res.Device.HitRate())
	}
}

func TestManyDevicesLiftRandomEfficiency(t *testing.T) {
	// The §6/Crisp effect: the same random pattern over a well-populated
	// channel regains most of the bus ("a memory system composed of these
	// chips has been observed to operate near 95% efficiency").
	single := run(t, rdram.DefaultConfig(), Config{Pattern: RandomUniform, Scheme: addrmap.CLI})
	many := run(t, channel(8), Config{Pattern: RandomUniform, Scheme: addrmap.CLI})
	if many.PercentPeak <= single.PercentPeak+5 {
		t.Errorf("8-device random %.1f%% should clearly beat single-device %.1f%%",
			many.PercentPeak, single.PercentPeak)
	}
	if many.PercentPeak < 80 {
		t.Errorf("8-device random = %.1f%%, expected high efficiency", many.PercentPeak)
	}
}

func TestHotPagesBenefitFromOpenPagePolicy(t *testing.T) {
	hotPI := run(t, rdram.DefaultConfig(), Config{Pattern: HotPages, Scheme: addrmap.PI})
	randPI := run(t, rdram.DefaultConfig(), Config{Pattern: RandomUniform, Scheme: addrmap.PI})
	if hotPI.Device.HitRate() <= randPI.Device.HitRate() {
		t.Errorf("hot-page hit rate %.2f should exceed uniform %.2f", hotPI.Device.HitRate(), randPI.Device.HitRate())
	}
	if hotPI.PercentPeak <= randPI.PercentPeak {
		t.Errorf("hot pages %.1f%% should beat uniform %.1f%% under open-page", hotPI.PercentPeak, randPI.PercentPeak)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a := run(t, rdram.DefaultConfig(), Config{Pattern: RandomUniform, Scheme: addrmap.PI, Seed: 42})
	b := run(t, rdram.DefaultConfig(), Config{Pattern: RandomUniform, Scheme: addrmap.PI, Seed: 42})
	if a.Cycles != b.Cycles {
		t.Error("same seed produced different runs")
	}
	c := run(t, rdram.DefaultConfig(), Config{Pattern: RandomUniform, Scheme: addrmap.PI, Seed: 43})
	if a.Cycles == c.Cycles {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}
