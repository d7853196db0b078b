package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/engine"
	"rdramstream/internal/rdram"
	"rdramstream/internal/resultcache"
	"rdramstream/internal/service"
	"rdramstream/internal/sim"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
	"rdramstream/internal/tracegen"
	"rdramstream/internal/workload"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"scenarios_per_s", "1/s"},
	{"allocs_per_scenario", "count"},
	{"pct_peak_mean", "%"},
	{"go_mem_mb", "MiB"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
}

// perLayer lists the metrics a --trace 1 run reports, on every workload.
var perLayer = []metricDef{
	{"sim.build_kernel_us", "us"},
	{"sim.run_timing_us", "us"},
	{"sim.seed_verify_us", "us"},
	{"sim.seed_verify_share", "ratio"},
	{"smc.ns_per_packet", "ns"},
	{"natorder.ns_per_packet", "ns"},
	{"workload.conventional_ns_per_packet", "ns"},
	{"rdram.ns_per_packet", "ns"},
	{"sim.host_ns_per_sim_cycle", "ns"},
	{"rdram.packets", "count"},
	{"rdram.activates", "count"},
	{"rdram.page_hit_ratio", "ratio"},
	{"rdram.page_conflicts", "count"},
	{"engine.useful_word_ratio", "ratio"},
	{"engine.cpu_stall_cycles", "cycles"},
	{"sim.cycles", "cycles"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"tracegen.generate_ns_per_access", "ns"},
	{"workload.replay_inorder_ns_per_txn", "ns"},
	{"workload.replay_reorder_ns_per_txn", "ns"},
	{"resultcache.key_us", "us"},
	{"resultcache.do_hit_us", "us"},
	{"service.hit_overhead_us", "us"},
	{"http.hit_overhead_us", "us"},
	{"service.hit_blocked_share", "ratio"},
	{"service.hit_blocked_p50_ms", "ms"},
	{"resultcache.key_trace_us", "us"},
	{"tracegen.digest_ns_per_access", "ns"},
	{"tracegen.ndjson_encode_ns_per_access", "ns"},
	{"tracegen.ndjson_decode_ns_per_access", "ns"},
	{"telemetry.miss_overhead_share", "ratio"},
	{"resultcache.hits", "count"},
	{"resultcache.misses", "count"},
	{"resultcache.dedups", "count"},
	{"service.tasks_per_batch", "ratio"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.hit_n", "count"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p90_ms", "ms"},
	{"serve.miss_n", "count"},
	{"serve.trace_p50_ms", "ms"},
	{"serve.trace_n", "count"},
	{"ledger.op_us", "us"},
	{"ledger.layers_us", "us"},
	{"ledger.remainder_us", "us"},
	{"ledger.remainder_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"trace.spans", "count"},
}

// probeServeSeconds is how long the serve probe runs at scale 1.
const probeServeSeconds = 3

// runProbes times the public calls of every layer on inputs generated
// from seed, the same generators the workloads use. Each timing is the
// median over repeated calls; the exact counts come from one kernel-grid
// round and one trace-mix round. scale shrinks every time budget.
func runProbes(seed int64, scale float64) (map[string]float64, error) {
	v := make(map[string]float64)
	budget := time.Duration(200 * float64(time.Millisecond) * scale)
	const minIter = 3
	ctx := context.Background()

	// The representative kernel scenario: a long daxpy on the
	// page-interleaved part, run by the SMC.
	pk := sim.Scenario{KernelName: "daxpy", N: 16384, Scheme: addrmap.PI, Controller: "smc", Seed: seed}
	pkTiming := pk
	pkTiming.SkipVerify = true
	var err error
	build := func() time.Duration {
		t0 := time.Now()
		_, e := sim.BuildKernel(pk)
		err = firstErr(err, e)
		return time.Since(t0)
	}
	runKernel := func(sc sim.Scenario) func() time.Duration {
		return func() time.Duration {
			k, e := sim.BuildKernel(sc)
			if e != nil {
				err = firstErr(err, e)
				return 0
			}
			t0 := time.Now()
			_, e = sim.RunKernel(k, sc)
			err = firstErr(err, e)
			return time.Since(t0)
		}
	}
	v["sim.build_kernel_us"] = timePerCall(budget, minIter, build) / 1e3
	timing := timePerCall(budget, minIter, runKernel(pkTiming))
	verified := timePerCall(budget, minIter, runKernel(pk))
	v["sim.run_timing_us"] = timing / 1e3
	v["sim.seed_verify_us"] = (verified - timing) / 1e3
	v["sim.seed_verify_share"] = (verified - timing) / verified

	// Controllers on a timing-only device, per device packet; the device
	// alone, re-driven over the packet stream the SMC produced.
	k, e := sim.BuildKernel(pk)
	if e != nil {
		return nil, e
	}
	opts := engine.Options{Scheme: pk.Scheme, LineWords: 4, FIFODepth: 32}
	for _, c := range []struct{ ctrl, metric string }{
		{"smc", "smc.ns_per_packet"},
		{"natural-order", "natorder.ns_per_packet"},
		{"conventional", "workload.conventional_ns_per_packet"},
	} {
		ctl, ok := engine.Lookup(c.ctrl)
		if !ok {
			return nil, fmt.Errorf("controller %s not registered", c.ctrl)
		}
		var packets int64
		ns := timePerCall(budget, minIter, func() time.Duration {
			dev := rdram.NewDevice(rdram.DefaultConfig())
			dev.SetTimingOnly(true)
			t0 := time.Now()
			_, e := ctl.Run(dev, k, opts)
			d := time.Since(t0)
			err = firstErr(err, e)
			packets = dev.Stats().PacketCount()
			return d
		})
		v[c.metric] = ns / float64(max(packets, 1))
	}
	reqs, ats, e := recordRequests(k, opts)
	if e != nil {
		return nil, e
	}
	v["rdram.ns_per_packet"] = timePerCall(budget, minIter, func() time.Duration {
		dev := rdram.NewDevice(rdram.DefaultConfig())
		dev.SetTimingOnly(true)
		t0 := time.Now()
		for i, r := range reqs {
			dev.Do(ats[i], r)
		}
		return time.Since(t0)
	}) / float64(max(len(reqs), 1))

	// One round of each batch workload: host time per simulated cycle and
	// the exact device and controller counts.
	var wall time.Duration
	var cycles, stall, useful, moved int64
	var st rdram.Stats
	for _, sc := range append(kernelGridInputs(seed), traceMixInputs(seed)...) {
		t0 := time.Now()
		out, e := sim.Run(sc)
		wall += time.Since(t0)
		if e != nil {
			return nil, fmt.Errorf("%s: %w", sc.Label(), e)
		}
		cycles += out.Cycles
		stall += out.CPUStallCycles
		useful += out.UsefulWords
		moved += out.TransferredWords
		d := out.Device
		st.Reads += d.Reads
		st.Writes += d.Writes
		st.Activates += d.Activates
		st.PageHits += d.PageHits
		st.PageMisses += d.PageMisses
		st.PageConflicts += d.PageConflicts
	}
	v["sim.host_ns_per_sim_cycle"] = float64(wall.Nanoseconds()) / float64(cycles)
	v["sim.cycles"] = float64(cycles)
	v["engine.cpu_stall_cycles"] = float64(stall)
	v["engine.useful_word_ratio"] = float64(useful) / float64(moved)
	v["rdram.packets"] = float64(st.PacketCount())
	v["rdram.activates"] = float64(st.Activates)
	v["rdram.page_hit_ratio"] = st.HitRate()
	v["rdram.page_conflicts"] = float64(st.PageConflicts)

	// Trace expansion and replay, per access and per line transaction.
	progs := tracePrograms(seed)
	var accsAll [][]workload.TraceAccess
	total := 0
	for i := range progs {
		accs, e := progs[i].Generate()
		if e != nil {
			return nil, e
		}
		accsAll = append(accsAll, accs)
		total += len(accs)
	}
	v["tracegen.generate_ns_per_access"] = timePerCall(budget, minIter, func() time.Duration {
		t0 := time.Now()
		for i := range progs {
			_, e := progs[i].Generate()
			err = firstErr(err, e)
		}
		return time.Since(t0)
	}) / float64(total)
	for _, r := range []struct {
		reorder bool
		metric  string
	}{{false, "workload.replay_inorder_ns_per_txn"}, {true, "workload.replay_reorder_ns_per_txn"}} {
		var txns int64
		ns := timePerCall(budget, minIter, func() time.Duration {
			var d time.Duration
			txns = 0
			for _, accs := range accsAll {
				for _, s := range gridSchemes {
					dev := rdram.NewDevice(rdram.DefaultConfig())
					dev.SetTimingOnly(true)
					t0 := time.Now()
					res, e := workload.ReplayTrace(dev, workload.TraceOptions{Scheme: s, LineWords: 4, Reorder: r.reorder, Window: 32}, accs)
					d += time.Since(t0)
					err = firstErr(err, e)
					txns += res.TransferredWords / 4
				}
			}
			return d
		})
		v[r.metric] = ns / float64(max(txns, 1))
	}

	// The posted trace of serve-rw: key, digest and wire costs.
	in, e := serveInputsFor(seed)
	if e != nil {
		return nil, e
	}
	accs := in.traceAccs
	traceSc := in.traceSc
	traceSc.Workload = &tracegen.Spec{Accesses: accs}
	n := float64(len(accs))
	key := func(sc sim.Scenario) func() time.Duration {
		return func() time.Duration {
			t0 := time.Now()
			_, e := resultcache.Key(sc)
			err = firstErr(err, e)
			return time.Since(t0)
		}
	}
	v["resultcache.key_us"] = timePerCall(budget, minIter, key(in.hot[0])) / 1e3
	v["resultcache.key_trace_us"] = timePerCall(budget, minIter, key(traceSc)) / 1e3
	v["tracegen.digest_ns_per_access"] = timePerCall(budget, minIter, func() time.Duration {
		t0 := time.Now()
		tracegen.DigestOf(accs)
		return time.Since(t0)
	}) / n
	var wire bytes.Buffer
	v["tracegen.ndjson_encode_ns_per_access"] = timePerCall(budget, minIter, func() time.Duration {
		wire.Reset()
		t0 := time.Now()
		err = firstErr(err, tracegen.Encode(&wire, "kv-post", accs))
		return time.Since(t0)
	}) / n
	v["tracegen.ndjson_decode_ns_per_access"] = timePerCall(budget, minIter, func() time.Duration {
		t0 := time.Now()
		_, got, e := tracegen.Decode(bytes.NewReader(wire.Bytes()))
		err = firstErr(err, e)
		if e == nil && len(got) != len(accs) {
			err = firstErr(err, fmt.Errorf("decoded %d accesses, encoded %d", len(got), len(accs)))
		}
		return time.Since(t0)
	}) / n

	// A warm hit through each serving layer: the cache alone, the service
	// queue in process, and the HTTP API.
	hot := in.hot[0]
	cache, e := resultcache.New(resultcache.Options{})
	if e != nil {
		return nil, e
	}
	if _, _, e := cache.Do(ctx, hot, sim.Run); e != nil {
		return nil, e
	}
	doHit := timePerCall(budget, minIter, func() time.Duration {
		t0 := time.Now()
		_, cached, e := cache.Do(ctx, hot, sim.Run)
		err = firstErr(err, e)
		if e == nil && !cached {
			err = firstErr(err, fmt.Errorf("warm cache.Do missed"))
		}
		return time.Since(t0)
	})
	v["resultcache.do_hit_us"] = doHit / 1e3
	svcHit, httpHit, e := serveHitProbe(ctx, hot, budget, minIter)
	if e != nil {
		return nil, e
	}
	v["service.hit_overhead_us"] = (svcHit - doHit) / 1e3
	v["http.hit_overhead_us"] = (httpHit - svcHit) / 1e3

	// What attaching a telemetry collector, as the service does on every
	// miss, costs a writer scenario.
	miss := in.shapes[len(in.shapes)-1]
	plain := timePerCall(budget, minIter, func() time.Duration {
		t0 := time.Now()
		_, e := sim.Run(miss)
		err = firstErr(err, e)
		return time.Since(t0)
	})
	withTel := timePerCall(budget, minIter, func() time.Duration {
		sc := miss
		sc.Telemetry = telemetry.New(telemetry.Options{})
		t0 := time.Now()
		_, e := sim.Run(sc)
		err = firstErr(err, e)
		return time.Since(t0)
	})
	v["telemetry.miss_overhead_share"] = withTel/plain - 1

	// A short serve-rw run: latency by request class, hits split by
	// whether a writer miss was in the server, and the service's counters.
	s, e := setupServe(seed)
	if e != nil {
		return nil, e
	}
	rs := s.measure(time.Duration(probeServeSeconds*scale*float64(time.Second)), nil)
	m := s.srv.svc.Metrics()
	if e := s.close(); e != nil {
		return nil, e
	}
	if rs.failed > 0 {
		return nil, fmt.Errorf("serve probe: %d failed requests: %v", rs.failed, rs.errs)
	}
	for name, x := range classLatencies(rs) {
		v["serve."+name] = x
	}
	v["service.hit_blocked_share"] = float64(len(rs.blockedMS)) / float64(max(len(rs.opMS), 1))
	v["service.hit_blocked_p50_ms"] = quantile(rs.blockedMS, 0.5)
	v["resultcache.hits"] = float64(m.Cache.Hits)
	v["resultcache.misses"] = float64(m.Cache.Misses)
	v["resultcache.dedups"] = float64(m.Cache.Dedups)
	v["service.tasks_per_batch"] = float64(m.Workers.TasksRun) / float64(max(m.Workers.Batches, 1))
	return v, err
}

func firstErr(err, e error) error {
	if err != nil {
		return err
	}
	return e
}

// recordRequests runs the SMC over k once and returns the device requests
// it issued, with the cycle each column packet was issued at.
func recordRequests(k *stream.Kernel, opts engine.Options) ([]rdram.Request, []int64, error) {
	ctl, ok := engine.Lookup("smc")
	if !ok {
		return nil, nil, fmt.Errorf("controller smc not registered")
	}
	dev := rdram.NewDevice(rdram.DefaultConfig())
	dev.SetTimingOnly(true)
	var reqs []rdram.Request
	var ats []int64
	dev.Trace = func(ev rdram.TraceEvent) {
		if ev.Kind == rdram.TraceReadCol || ev.Kind == rdram.TraceWriteCol {
			reqs = append(reqs, rdram.Request{Bank: ev.Bank, Row: ev.Row, Col: ev.Col, Write: ev.Kind == rdram.TraceWriteCol})
			ats = append(ats, ev.Start)
		}
	}
	_, err := ctl.Run(dev, k, opts)
	return reqs, ats, err
}

// serveHitProbe times a warm hit through the service in process and
// through the HTTP API, both on their own single-worker service.
func serveHitProbe(ctx context.Context, sc sim.Scenario, budget time.Duration, minIter int) (svcNS, httpNS float64, err error) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		return 0, 0, err
	}
	submit := func() time.Duration {
		t0 := time.Now()
		job, e := svc.SubmitOne(ctx, sc)
		if e == nil {
			var res service.ScenarioResult
			res, e = job.WaitResult(ctx, 0)
			if e == nil && res.Error != "" {
				e = fmt.Errorf("%s", res.Error)
			}
		}
		err = firstErr(err, e)
		return time.Since(t0)
	}
	submit()
	svcNS = timePerCall(budget, minIter, submit)
	if cerr := svc.Close(ctx); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, err
	}

	srv, err := startServer()
	if err != nil {
		return 0, 0, err
	}
	c, tp := newClient(srv.url, false)
	defer tp.CloseIdleConnections()
	call := func() time.Duration {
		t0 := time.Now()
		_, e := c.Simulate(ctx, sc)
		err = firstErr(err, e)
		return time.Since(t0)
	}
	call()
	httpNS = timePerCall(budget, minIter, call)
	return svcNS, httpNS, firstErr(err, srv.close())
}
