package resultcache

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/cache"
	"rdramstream/internal/fault"
	"rdramstream/internal/rdram"
	"rdramstream/internal/sim"
	"rdramstream/internal/smc"
	"rdramstream/internal/stream"
	"rdramstream/internal/tracegen"
	"rdramstream/internal/version"
)

// refKey is Key as it was first written — one fmt.Sprintf per field,
// sorted and joined — kept as the reference the faster Key must match
// byte for byte: a key change would orphan every disk entry and split
// the fleet's cache.
func refKey(sc sim.Scenario) (string, error) {
	canon, err := sc.Canonical()
	if err != nil {
		return "", err
	}
	fields := []string{
		fmt.Sprintf("cache=%+v", canon.Cache),
		fmt.Sprintf("controller=%s", canon.Controller),
		fmt.Sprintf("device=%+v", canon.Device),
		fmt.Sprintf("fault=%+v", canon.Fault),
		fmt.Sprintf("fifoDepth=%d", canon.FIFODepth),
		fmt.Sprintf("kernel=%s", canon.KernelName),
		fmt.Sprintf("lineWords=%d", canon.LineWords),
		fmt.Sprintf("n=%d", canon.N),
		fmt.Sprintf("placement=%d", int(canon.Placement)),
		fmt.Sprintf("policy=%d", int(canon.Policy)),
		fmt.Sprintf("scheme=%d", int(canon.Scheme)),
		fmt.Sprintf("seed=%d", canon.Seed),
		fmt.Sprintf("skipVerify=%v", canon.SkipVerify),
		fmt.Sprintf("speculate=%v", canon.SpeculateActivate),
		fmt.Sprintf("stride=%d", canon.Stride),
		fmt.Sprintf("trace=%+v", canon.Workload),
		fmt.Sprintf("version=%s", version.Stamp()),
		fmt.Sprintf("watchdog=%d", canon.WatchdogLimit),
		fmt.Sprintf("writeAllocate=%v", canon.WriteAllocate),
	}
	sort.Strings(fields)
	sum := sha256.Sum256([]byte(strings.Join(fields, "\n")))
	return hex.EncodeToString(sum[:]), nil
}

// refDiskFile is the disk entry file as the store first wrote it: the
// whole entry through json.MarshalIndent, then a newline.
func refDiskFile(t *testing.T, key string, out sim.Outcome) []byte {
	t.Helper()
	data, err := json.MarshalIndent(diskEntry{Key: key, Version: version.Stamp(), Outcome: out}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// drawScenario draws one kernel scenario over every field the key
// folds in. Draws need not be runnable: Key only canonicalizes.
func drawScenario(rng *rand.Rand) sim.Scenario {
	kernels := []string{"copy", "daxpy", "hydro", "vaxpy"}
	controllers := append([]string{""}, sim.Controllers()...)
	sc := sim.Scenario{
		KernelName:        kernels[rng.Intn(len(kernels))],
		N:                 []int{0, 16, 64, 1000, 1024, 8192}[rng.Intn(6)],
		Stride:            int64(rng.Intn(5)),
		Scheme:            addrmap.Scheme(rng.Intn(2)),
		Placement:         stream.Placement(rng.Intn(3)),
		Mode:              sim.Mode(rng.Intn(2)),
		Controller:        controllers[rng.Intn(len(controllers))],
		LineWords:         []int{0, 4, 8}[rng.Intn(3)],
		FIFODepth:         []int{0, 8, 32, 128}[rng.Intn(4)],
		Policy:            smc.Policy(rng.Intn(2)),
		SpeculateActivate: rng.Intn(2) == 0,
		WriteAllocate:     rng.Intn(2) == 0,
		WatchdogLimit:     int64(rng.Intn(3)) * 50_000,
		Seed:              rng.Int63n(1 << 40),
		SkipVerify:        rng.Intn(2) == 0,
	}
	switch rng.Intn(3) {
	case 1:
		sc.Device = rdram.DefaultConfig()
	case 2:
		sc.Device = rdram.DefaultConfig()
		sc.Device.RefreshInterval = int64(rng.Intn(2000))
		sc.Device.Geometry.DoubleBank = rng.Intn(2) == 0
	}
	if rng.Intn(2) == 0 {
		f := fault.Scaled(rng.Int63(), rng.Intn(4))
		sc.Fault = &f
	}
	if rng.Intn(3) == 0 {
		c := cache.DefaultConfig()
		c.Ways = 1 << rng.Intn(3)
		sc.Cache = &c
	}
	return sc
}

// keyShapes are fixed scenarios whose keys the draw might miss: the
// serve-rw benchmark's hot set and writer shapes, a fault-injected run,
// and a trace given as a program and as the access list it expands to.
func keyShapes(t *testing.T) []sim.Scenario {
	t.Helper()
	var scs []sim.Scenario
	for _, k := range []string{"copy", "daxpy", "hydro", "vaxpy"} {
		for _, s := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			scs = append(scs, sim.Scenario{KernelName: k, N: 1024, Scheme: s, Controller: "smc", Seed: 7})
			for _, c := range []string{"natural-order", "smc"} {
				scs = append(scs, sim.Scenario{KernelName: k, N: 8192, Scheme: s, Controller: c, SkipVerify: true, Seed: 1 << 33})
			}
		}
	}
	f := fault.Scaled(3, 2)
	scs = append(scs, sim.Scenario{KernelName: "daxpy", N: 512, Scheme: addrmap.PI, Mode: sim.SMC, Fault: &f})
	prog := tracegen.Program{Name: "kv-post", Seed: 11, Phases: []tracegen.Phase{
		{Pattern: tracegen.PatternLLMKV, Accesses: 8192, ContextRows: 32},
	}}
	accs, err := prog.Generate()
	if err != nil {
		t.Fatal(err)
	}
	scs = append(scs,
		sim.Scenario{Scheme: addrmap.PI, Controller: "smc", Workload: &tracegen.Spec{Program: &prog}},
		sim.Scenario{Scheme: addrmap.PI, Controller: "smc", Workload: &tracegen.Spec{Accesses: accs, Outstanding: 4}})
	return scs
}

func TestKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	scs := keyShapes(t)
	for i := 0; i < 2000; i++ {
		scs = append(scs, drawScenario(rng))
	}
	for i, sc := range scs {
		got, gerr := Key(sc)
		want, werr := refKey(sc)
		if got != want || (gerr == nil) != (werr == nil) {
			t.Fatalf("scenario %d %+v: Key = %q, %v; reference %q, %v", i, sc, got, gerr, want, werr)
		}
	}
}

// The disk entry file is byte-identical to the one the whole-entry
// json.MarshalIndent wrote, for kernel, fault-injected and trace
// scenarios.
func TestDiskFileMatchesReference(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	f := fault.Scaled(5, 3)
	prog, err := tracegen.ParseProgram("llm-kvcache:n=512,ctxrows=8", 3)
	if err != nil {
		t.Fatal(err)
	}
	scs := []sim.Scenario{
		scenario(),
		{KernelName: "hydro", N: 200, Stride: 3, Scheme: addrmap.CLI, Mode: sim.NaturalOrder, Cache: &cache.Config{SizeWords: 512, LineWords: 4, Ways: 2}},
		{KernelName: "vaxpy", N: 128, Scheme: addrmap.PI, Mode: sim.SMC, FIFODepth: 8, Fault: &f},
		{Scheme: addrmap.CLI, Controller: "natural-order", Workload: &tracegen.Spec{Program: prog}},
	}
	for _, sc := range scs {
		out, hit, err := c.Do(context.Background(), sc, nil)
		if err != nil || hit {
			t.Fatalf("%s: hit=%v err=%v", sc.Label(), hit, err)
		}
		key, err := Key(sc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, key+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if want := refDiskFile(t, key, out); !bytes.Equal(got, want) {
			t.Errorf("%s: disk entry differs from the reference:\n--- got ---\n%s\n--- want ---\n%s", sc.Label(), got, want)
		}
	}
}

// A string field is written as encoding/json writes it, including the
// ones that need escapes.
func TestEnvelopeStringsMatchJSON(t *testing.T) {
	for _, v := range []string{"", "job-000001", "rdramstream 0.6.0 model=abc", `q"b\s`, "<&>", "tab\there", "é", " ", "\xff"} {
		q, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, v); !bytes.Equal(got, q) {
			t.Errorf("appendString(%q) = %s, want %s", v, got, q)
		}
	}
}

// A miss encodes its outcome for its own callers without the entry
// keeping the bytes; the entry encodes on its first hit, and every later
// hit, from Hit, Do or Peek, shares those bytes.
func TestHitsShareOneEncoding(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario()
	key, err := Key(sc)
	if err != nil {
		t.Fatal(err)
	}
	miss, hit, err := c.DoKey(context.Background(), key, sc, nil)
	if err != nil || hit || miss.JSON == nil {
		t.Fatalf("miss: hit=%v err=%v, %d encoded bytes", hit, err, len(miss.JSON))
	}
	first, ok := c.Hit(key)
	if !ok || !bytes.Equal(first.JSON, miss.JSON) {
		t.Fatalf("first hit: ok=%v, bytes differ from the miss's", ok)
	}
	if &first.JSON[0] == &miss.JSON[0] {
		t.Error("the entry kept the miss's encoding")
	}
	again, _, err := c.DoKey(context.Background(), key, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	peeked, _ := c.Peek(key)
	for name, r := range map[string]Result{"DoKey": again, "Peek": peeked} {
		if &r.JSON[0] != &first.JSON[0] {
			t.Errorf("%s hit re-encoded the outcome", name)
		}
	}
}
