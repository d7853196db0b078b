// Command rdserved serves the simulator over HTTP: a batched job queue in
// front of the engine worker pool, with a content-addressed result cache
// so identical scenarios — across requests, clients, and restarts (with
// -cache-dir) — simulate once.
//
//	rdserved -addr :8347 -workers 8 -cache-entries 4096 -cache-dir /var/cache/rdramstream
//
// Distributed operation (see docs/SERVICE.md, "Distributed operation"):
//
//	rdserved -addr :8347 -fabric                      # coordinator
//	rdserved -addr :8348 -coordinator http://host:8347  # worker
//
// A coordinator shards sweeps across registered workers by cache content
// key, re-shards around failures, and falls back to local execution when
// the fleet is empty. Each distributed sweep is a job of its own service,
// served by the same handler, so it is a strict superset of a plain
// rdserved: same bodies, statuses, traces and job IDs. A worker is a
// plain rdserved that periodically registers its advertised URL with the
// coordinator.
//
// API (see docs/SERVICE.md and docs/OBSERVABILITY.md):
//
//	POST /v1/simulate      one scenario (sim.Scenario JSON), synchronous
//	POST /v1/sweep         {"scenarios":[...]}, NDJSON stream in input order
//	GET  /v1/jobs/{id}     job status
//	GET  /v1/cache/{key}   result-cache peek by content key (peer tier)
//	POST /v1/fabric/register  worker registration (coordinator only)
//	GET  /v1/fabric/workers   fleet health + stats (coordinator only)
//	GET  /v1/requests/{id} one request trace (per-stage spans)
//	GET  /debug/requests   recent traces (?format=json|jsonl|chrome)
//	GET  /healthz          liveness + version stamp
//	GET  /metrics          Prometheus text exposition (cache, queue,
//	                       worker, stall and fabric series)
//	GET  /debug/pprof/     runtime profiles (only with -pprof)
//
// Shutdown: SIGINT/SIGTERM stops accepting connections, drains the job
// queue (bounded by -drain-timeout), then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rdramstream/internal/fabric"
	"rdramstream/internal/obs"
	"rdramstream/internal/resultcache"
	"rdramstream/internal/service"
	"rdramstream/internal/service/client"
	"rdramstream/internal/version"
)

func main() {
	addr := flag.String("addr", ":8347", "listen address")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue", 1024, "max queued scenarios across all jobs")
	batchSize := flag.Int("batch", 32, "max scenarios coalesced into one worker-pool batch")
	cacheEntries := flag.Int("cache-entries", 1024, "in-memory result-cache capacity (entries)")
	cacheDir := flag.String("cache-dir", "", "on-disk result store directory (empty = memory only)")
	requestTimeout := flag.Duration("request-timeout", 5*time.Minute, "per-request simulation deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain bound")
	traceRing := flag.Int("trace-ring", obs.DefaultRingSize, "request traces kept for /debug/requests")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	fabricOn := flag.Bool("fabric", false, "run as a fabric coordinator: shard sweeps across registered workers")
	coordinator := flag.String("coordinator", "", "run as a fabric worker: register with this coordinator URL")
	advertise := flag.String("advertise", "", "base URL workers advertise to the coordinator (default derives from -addr)")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "fabric heartbeat cadence (coordinator probes; worker re-registration)")
	fabricInflight := flag.Int("fabric-inflight", 32, "coordinator admission bound: max concurrent distributed sweeps")
	showVersion := flag.Bool("version", false, "print the version stamp and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.Stamp())
		return
	}
	if *fabricOn && *coordinator != "" {
		fatalf("-fabric and -coordinator are mutually exclusive (a node is a coordinator or a worker)")
	}

	cache, err := resultcache.New(resultcache.Options{MaxEntries: *cacheEntries, Dir: *cacheDir})
	if err != nil {
		fatalf("%v", err)
	}
	svc, err := service.New(service.Config{
		Workers:    *workers,
		QueueDepth: *queueDepth,
		BatchSize:  *batchSize,
		Cache:      cache,
		Obs:        obs.NewObserver(obs.ObserverOptions{RingSize: *traceRing}),
	})
	if err != nil {
		fatalf("%v", err)
	}

	handler := service.NewHandlerWith(svc, service.HandlerOptions{PProf: *pprofOn})
	var co *fabric.Coordinator
	if *fabricOn {
		co, err = fabric.NewCoordinator(fabric.Config{
			Local:             svc,
			HeartbeatInterval: *heartbeat,
			MaxInFlightSweeps: *fabricInflight,
			AttemptTimeout:    *requestTimeout,
		})
		if err != nil {
			fatalf("%v", err)
		}
		handler = fabric.Handler(co, handler)
		fmt.Fprintln(os.Stderr, "rdserved: fabric coordinator enabled")
	}
	server := &http.Server{
		Addr:              *addr,
		Handler:           withDeadline(handler, *requestTimeout),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "rdserved: %s\nrdserved: listening on %s\n", version.Stamp(), *addr)

	if *coordinator != "" {
		go registerLoop(ctx, *coordinator, advertiseURL(*advertise, *addr), *heartbeat)
	}

	select {
	case err := <-errCh:
		fatalf("%v", err)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "rdserved: draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if co != nil {
		co.Close()
	}
	if err := server.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "rdserved: http shutdown: %v\n", err)
	}
	if err := svc.Close(shutdownCtx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "rdserved: drain: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "rdserved: bye")
}

// advertiseURL derives the URL a worker announces to its coordinator: an
// explicit -advertise wins; otherwise a ":port" listen address becomes
// "http://127.0.0.1:port" (the single-host default) and a host:port
// gains an http scheme.
func advertiseURL(advertise, addr string) string {
	if advertise != "" {
		return advertise
	}
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	if !strings.Contains(addr, "://") {
		return "http://" + addr
	}
	return addr
}

// registerLoop announces this worker to the coordinator on the heartbeat
// cadence until shutdown. Registration is idempotent and doubles as a
// worker-initiated liveness refresh, so a worker that restarts — or a
// coordinator that does — converges without operator action.
func registerLoop(ctx context.Context, coordinator, advertise string, every time.Duration) {
	if every <= 0 {
		every = 2 * time.Second
	}
	cl := client.New(coordinator)
	cl.Timeout = every
	registered := false // log only state transitions, not every beat
	first := true
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		if err := cl.RegisterWorker(ctx, advertise); err != nil {
			if registered || first {
				fmt.Fprintf(os.Stderr, "rdserved: fabric register (%s -> %s): %v (retrying every %s)\n",
					advertise, coordinator, err, every)
			}
			registered = false
		} else {
			if !registered {
				fmt.Fprintf(os.Stderr, "rdserved: fabric worker %s registered with %s\n", advertise, coordinator)
			}
			registered = true
		}
		first = false
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// withDeadline bounds every request's context. Unlike http.TimeoutHandler
// it never buffers the response, so the sweep endpoint's NDJSON stream
// still flushes line by line; a request past its deadline sees its
// context cancel, which fails queued-but-unstarted scenarios and ends the
// stream.
func withDeadline(h http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rdserved: "+format+"\n", args...)
	os.Exit(1)
}
