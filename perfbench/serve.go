package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/service"
	"rdramstream/internal/service/client"
	"rdramstream/internal/sim"
	"rdramstream/internal/tracegen"
	"rdramstream/internal/workload"
)

const (
	// traceEvery makes every traceEvery-th writer request a trace POST.
	traceEvery = 7
	// serveTraceAccesses is the length of the posted trace.
	serveTraceAccesses = 8192
	// missN is the stream length of the writer's cold kernel scenarios.
	missN = 8192
	// spanHeader carries "op,parent" span ids from the client to the
	// server-side span.
	spanHeader = "X-Perfbench-Span"
	// writerHeader marks the writer's requests, so the server side can
	// tell when one of its misses is in flight.
	writerHeader = "X-Perfbench-Writer"
)

// serveInputs are the requests of serve-rw, generated from the seed.
type serveInputs struct {
	// hot is the reader's working set; every request for it is a hit.
	hot []sim.Scenario
	// shapes are the writer's cold kernel scenarios. SkipVerify runs never
	// seed data, so an outcome does not depend on Scenario.Seed: the writer
	// gives each request a fresh Seed, which makes a new cache key with a
	// known outcome.
	shapes []sim.Scenario
	// traceSc and traceAccs are the posted trace and the scenario it
	// replays under.
	traceSc   sim.Scenario
	traceAccs []workload.TraceAccess
	seedBase  int64
	seq       *rand.Rand
}

func serveInputsFor(seed int64) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	in := &serveInputs{seq: rand.New(rand.NewSource(rng.Int63()))}
	for i := 0; i < 8; i++ {
		in.hot = append(in.hot, sim.Scenario{
			KernelName: gridKernels[i%len(gridKernels)], N: 1024,
			Scheme: gridSchemes[i/len(gridKernels)], Controller: "smc", Seed: rng.Int63(),
		})
	}
	for _, k := range gridKernels {
		for _, s := range gridSchemes {
			for _, c := range []string{"natural-order", "smc"} {
				in.shapes = append(in.shapes, sim.Scenario{KernelName: k, N: missN, Scheme: s, Controller: c, SkipVerify: true})
			}
		}
	}
	in.seedBase = rng.Int63n(1 << 40)
	prog := tracegen.Program{Name: "kv-post", Seed: rng.Int63(), Phases: []tracegen.Phase{
		{Pattern: tracegen.PatternLLMKV, Accesses: serveTraceAccesses, ContextRows: 32},
	}}
	accs, err := prog.Generate()
	if err != nil {
		return nil, err
	}
	in.traceAccs = accs
	in.traceSc = sim.Scenario{Scheme: addrmap.PI, Controller: "smc"}
	return in, nil
}

// server is one in-process service behind a loopback HTTP listener.
type server struct {
	svc    *service.Service
	srv    *http.Server
	served chan error
	url    string
	tr     atomic.Pointer[tracer]
	// missesInFlight counts writer misses the server is handling. The
	// writer's trace posts are hits and do not count.
	missesInFlight atomic.Int64
}

func startServer() (*server, error) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close(context.Background())
		return nil, err
	}
	s := &server{svc: svc, served: make(chan error, 1), url: "http://" + ln.Addr().String()}
	inner := service.NewHandler(svc)
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(writerHeader) != "" && r.URL.Path == "/v1/simulate" {
			s.missesInFlight.Add(1)
			defer s.missesInFlight.Add(-1)
		}
		tr := s.tr.Load()
		op, parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if tr == nil || !ok {
			inner.ServeHTTP(w, r)
			return
		}
		sp := tr.begin("service.Handler", op, parent)
		inner.ServeHTTP(w, r)
		sp.end()
	})}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

func parseSpanHeader(h string) (op, parent int64, ok bool) {
	a, b, found := strings.Cut(h, ",")
	if !found {
		return 0, 0, false
	}
	op, err1 := strconv.ParseInt(a, 10, 64)
	parent, err2 := strconv.ParseInt(b, 10, 64)
	return op, parent, err1 == nil && err2 == nil
}

// close stops the listener and the service and waits for both.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.svc.Close(ctx))
}

type spanKey struct{}

// spanTransport forwards the caller's span ids to the server and marks
// the writer's requests.
type spanTransport struct {
	base   http.RoundTripper
	writer bool
}

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	o, traced := r.Context().Value(spanKey{}).(open)
	traced = traced && o.t != nil
	if traced || t.writer {
		r = r.Clone(r.Context())
	}
	if traced {
		r.Header.Set(spanHeader, fmt.Sprintf("%d,%d", o.s.Op, o.s.ID))
	}
	if t.writer {
		r.Header.Set(writerHeader, "1")
	}
	return t.base.RoundTrip(r)
}

// newClient is one closed-loop client with its own connection.
func newClient(url string, writer bool) (*client.Client, *http.Transport) {
	tp := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	c := client.New(url)
	c.HTTPClient = &http.Client{Transport: spanTransport{base: tp, writer: writer}}
	c.Timeout = 60 * time.Second
	return c, tp
}

// serve is the serve-rw workload: one server, a reader that only hits the
// cache and a writer that only misses it (or posts a trace that hits).
type serve struct {
	in        *serveInputs
	srv       *server
	reader    *client.Client
	writer    *client.Client
	tps       []*http.Transport
	hotRefs   []sim.Outcome
	shapeRefs []sim.Outcome
	traceRef  sim.Outcome
	nextSeed  int64
	// writes counts the writer's requests across measurement windows, so
	// every traceEvery-th one is a trace post however the time is split.
	writes int
}

// setupServe computes the reference outcomes with direct sim.Run calls,
// starts the server and warms the hot set and the trace into its cache.
func setupServe(seed int64) (*serve, error) {
	in, err := serveInputsFor(seed)
	if err != nil {
		return nil, err
	}
	s := &serve{in: in, nextSeed: in.seedBase}
	if s.hotRefs, err = sim.RunAll(in.hot, 1); err != nil {
		return nil, err
	}
	if s.shapeRefs, err = sim.RunAll(in.shapes, 1); err != nil {
		return nil, err
	}
	tsc := in.traceSc
	tsc.Workload = &tracegen.Spec{Accesses: in.traceAccs}
	if s.traceRef, err = sim.Run(tsc); err != nil {
		return nil, err
	}
	if s.srv, err = startServer(); err != nil {
		return nil, err
	}
	var rtp, wtp *http.Transport
	s.reader, rtp = newClient(s.srv.url, false)
	s.writer, wtp = newClient(s.srv.url, true)
	s.tps = []*http.Transport{rtp, wtp}
	ctx := context.Background()
	for i, sc := range in.hot {
		resp, err := s.reader.Simulate(ctx, sc)
		if err == nil && resp.Outcome != s.hotRefs[i] {
			err = fmt.Errorf("warm-up outcome of %s differs from sim.Run", sc.Label())
		}
		if err != nil {
			s.close()
			return nil, err
		}
	}
	resp, err := s.writer.Trace(ctx, in.traceSc, "kv-post", in.traceAccs)
	if err == nil && resp.Outcome != s.traceRef {
		err = fmt.Errorf("warm-up trace outcome differs from sim.Run")
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serve) close() error {
	err := s.srv.close()
	for _, tp := range s.tps {
		tp.CloseIdleConnections()
	}
	return err
}

func (s *serve) pctPeakMean() float64 {
	sum, n := 0.0, 0
	for _, o := range append(append(append([]sim.Outcome(nil), s.hotRefs...), s.shapeRefs...), s.traceRef) {
		sum += o.PercentPeak
		n++
	}
	return sum / float64(n)
}

// measure runs the reader and the writer side by side, each a closed loop,
// until d has passed. Reader requests are the operations; the writer's
// requests count as scenarios and have latencies of their own.
func (s *serve) measure(d time.Duration, tr *tracer) runStats {
	s.srv.tr.Store(tr)
	defer s.srv.tr.Store(nil)
	var (
		wg       sync.WaitGroup
		rd, wr   runStats
		deadline = time.Now().Add(d)
		hotSeq   = make([]int, 0, 1024)
		start    = time.Now()
		ctx      = context.Background()
	)
	for i := 0; i < cap(hotSeq); i++ {
		hotSeq = append(hotSeq, s.in.seq.Intn(len(s.in.hot)))
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i == 0 || time.Now().Before(deadline); i++ {
			j := hotSeq[i%len(hotSeq)]
			blocked := s.srv.missesInFlight.Load() > 0
			op := tr.begin(rootSpan, 0, 0)
			t0 := time.Now()
			sp := op.child("client.Simulate")
			resp, err := s.reader.Simulate(context.WithValue(ctx, spanKey{}, sp), s.in.hot[j])
			sp.end()
			lat := ms(time.Since(t0))
			rd.attempted++
			rd.ops++
			switch {
			case err != nil:
			case !resp.Cached:
				err = fmt.Errorf("planned hit %s came back uncached", s.in.hot[j].Label())
			case resp.Outcome != s.hotRefs[j]:
				err = fmt.Errorf("hit %s differs from sim.Run", s.in.hot[j].Label())
			}
			op.end()
			if err != nil {
				rd.fail(1, err)
				continue
			}
			rd.scenarios++
			rd.opMS = append(rd.opMS, lat)
			if blocked {
				rd.blockedMS = append(rd.blockedMS, lat)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for first := true; first || time.Now().Before(deadline); first = false {
			s.writes++
			i := s.writes
			op := tr.begin(rootSpan, 0, 0)
			t0 := time.Now()
			var (
				resp  service.SimulateResponse
				err   error
				trace = i%traceEvery == 0
			)
			if trace {
				sp := op.child("client.Trace")
				resp, err = s.writer.Trace(context.WithValue(ctx, spanKey{}, sp), s.in.traceSc, "kv-post", s.in.traceAccs)
				sp.end()
				if err == nil && !resp.Cached {
					err = fmt.Errorf("planned trace hit came back uncached")
				} else if err == nil && resp.Outcome != s.traceRef {
					err = fmt.Errorf("trace outcome differs from sim.Run")
				}
			} else {
				j := i % len(s.in.shapes)
				sc := s.in.shapes[j]
				s.nextSeed++
				sc.Seed = s.nextSeed
				sp := op.child("client.Simulate")
				resp, err = s.writer.Simulate(context.WithValue(ctx, spanKey{}, sp), sc)
				sp.end()
				if err == nil && resp.Cached {
					err = fmt.Errorf("planned miss %s came back cached", sc.Label())
				} else if err == nil && resp.Outcome != s.shapeRefs[j] {
					err = fmt.Errorf("miss %s differs from sim.Run", sc.Label())
				}
			}
			lat := ms(time.Since(t0))
			op.end()
			wr.attempted++
			if err != nil {
				wr.fail(1, err)
				continue
			}
			wr.scenarios++
			if trace {
				wr.traceMS = append(wr.traceMS, lat)
			} else {
				wr.missMS = append(wr.missMS, lat)
			}
		}
	}()
	wg.Wait()
	rd.merge(wr)
	rd.elapsed = time.Since(start)
	rd.rate = float64(rd.scenarios) / rd.elapsed.Seconds()
	return rd
}
