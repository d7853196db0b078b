package workload_test

import (
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/tracegen"
	"rdramstream/internal/workload"
)

// timingDevice is the replay's device as the sim layer builds it: a
// trace carries addresses, not data, so it runs timing-only.
func timingDevice() *rdram.Device {
	dev := rdram.NewDevice(rdram.DefaultConfig())
	dev.SetTimingOnly(true)
	return dev
}

// kvTrace is an llm-kvcache program of n accesses at 32 context rows,
// the row-granular traffic the trace-mix benchmark replays most.
func kvTrace(tb testing.TB, n int) []workload.TraceAccess {
	p := tracegen.Program{Seed: 7, Phases: []tracegen.Phase{{Pattern: tracegen.PatternLLMKV, Accesses: n, ContextRows: 32}}}
	accs, err := p.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	return accs
}

// BenchmarkReplayTrace times one replay of a 12,288-access llm-kvcache
// trace in order and reordered under each scheme, and reports the cost
// per line transaction.
func BenchmarkReplayTrace(b *testing.B) {
	accs := kvTrace(b, 12288)
	for _, c := range []struct {
		name    string
		reorder bool
	}{{"InOrder", false}, {"Reordered", true}} {
		for _, s := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			opt := workload.TraceOptions{Scheme: s, LineWords: 4, Reorder: c.reorder}
			b.Run(c.name+"/"+s.String(), func(b *testing.B) {
				var txns int64
				for i := 0; i < b.N; i++ {
					res, err := workload.ReplayTrace(timingDevice(), opt, accs)
					if err != nil {
						b.Fatal(err)
					}
					txns = res.Device.PacketCount() * rdram.WordsPerPacket / int64(opt.LineWords)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*txns), "ns/txn")
			})
		}
	}
}

// TestReplayTraceAllocs checks that a replay allocates a fixed number of
// times however long its trace: twice the accesses, under either scheme,
// in order or reordered, may not add an allocation (a list grown by
// append would).
func TestReplayTraceAllocs(t *testing.T) {
	short, long := kvTrace(t, 12288), kvTrace(t, 24576)
	for _, s := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
		for _, reorder := range []bool{false, true} {
			opt := workload.TraceOptions{Scheme: s, LineWords: 4, Reorder: reorder}
			allocs := func(accs []workload.TraceAccess) float64 {
				devs := make([]*rdram.Device, 6)
				for i := range devs {
					devs[i] = timingDevice()
				}
				i := 0
				return testing.AllocsPerRun(len(devs)-1, func() {
					if _, err := workload.ReplayTrace(devs[i], opt, accs); err != nil {
						t.Fatal(err)
					}
					i++
				})
			}
			if a, b := allocs(short), allocs(long); a != b {
				t.Errorf("%v reorder=%v: %v allocs for %d accesses, %v for %d", s, reorder, a, len(short), b, len(long))
			}
		}
	}
}
