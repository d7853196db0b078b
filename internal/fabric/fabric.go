// Package fabric is the distributed sweep layer: a coordinator that
// shards sweeps across a fleet of rdserved workers and merges their
// NDJSON streams back in input order, built robustness-first.
//
// Roles. A worker is an ordinary rdserved instance that registers its
// base URL with the coordinator (POST /v1/fabric/register, refreshed
// periodically). The coordinator owns the fleet view: it consistent-
// hashes each scenario's resultcache content key (a stable SHA-256 —
// the natural shard key, because it sends identical scenarios to the
// same worker's cache) onto the worker ring (internal/fabric/shard),
// fans sub-sweeps out over internal/service/client, and lands results
// into the slots of a job it opened in its local service, which streams
// and serves that job like any other.
//
// The robustness ladder, in the order a request descends it:
//
//  1. Admission control: at most MaxInFlightSweeps distributed sweeps
//     run at once; excess submissions are shed with ErrSaturated
//     (HTTP 429 + Retry-After) instead of queueing unboundedly.
//  2. Health: the coordinator heartbeats every worker; one unheard-of
//     for HeartbeatTimeout is marked dead and leaves the ring.
//  3. Circuit breakers: BreakerThreshold consecutive failures open a
//     worker's breaker for BreakerCooldown — the engine.Issue
//     retry/RejectError discipline applied to workers instead of banks.
//  4. Re-shard: when a worker dies mid-stream, only its unacknowledged
//     scenarios are re-hashed onto the survivors (bounded retries with
//     backoff between barren rounds).
//  5. Local fallback: a scenario out of remote retries — or a sweep
//     arriving when the ring is empty or fully tripped — runs on the
//     coordinator's own service, so a one-node deployment is always
//     correct.
//
// Correctness oracle: simulation is deterministic, so whatever path a
// scenario takes — worker A, worker B after a re-shard, or the local
// fallback — its outcome is byte-identical to a local sim.RunAll. The
// chaos tests (chaos.go, chaos_test.go) kill and stall workers
// mid-sweep under seeded schedules and assert exactly that.
//
// Wall-clock time (heartbeats, breaker cooldowns, backoff) is confined
// to this package and injectable via Config.Now; shard assignment lives
// in internal/fabric/shard, which the rdlint determinism analyzer holds
// to simulation-core rules.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"sort"
	"sync"
	"time"

	"rdramstream/internal/fabric/shard"
	"rdramstream/internal/obs"
	"rdramstream/internal/service"
	"rdramstream/internal/service/client"
	"rdramstream/internal/sim"
)

// Submission errors, matchable with errors.Is. They are the service's
// own, so the service's handler maps them to the statuses a plain
// rdserved answers.
var (
	// ErrSaturated is returned when admission control sheds a sweep
	// (HTTP 429 + Retry-After).
	ErrSaturated = service.ErrSaturated
	// ErrEmptySweep rejects a sweep with no scenarios (HTTP 400).
	ErrEmptySweep = service.ErrEmptyJob
	// ErrClosed rejects submissions and registrations after Close (HTTP
	// 503).
	ErrClosed = service.ErrClosed
)

// Backend is the coordinator's view of one worker. The production
// implementation wraps internal/service/client; tests and the chaos
// harness substitute in-process backends (ServiceBackend, ChaosBackend).
type Backend interface {
	// Health probes liveness.
	Health(ctx context.Context) error
	// Sweep streams a scenario list: fn sees one line per scenario in
	// input order (never the trailing summary). An error means the
	// worker failed mid-sweep; rows already delivered to fn stand.
	Sweep(ctx context.Context, scs []sim.Scenario, fn func(service.SweepLine) error) (service.SweepLine, error)
	// CachedOutcome probes the worker's result cache by content key
	// without running anything (the peer cache tier).
	CachedOutcome(ctx context.Context, key string) (sim.Outcome, bool, error)
}

// Config wires a Coordinator. Local is required; everything else
// defaults sanely.
type Config struct {
	// Local is the coordinator's own service — the fallback executor
	// that makes a workerless coordinator a correct one-node server.
	Local *service.Service
	// Obs receives fabric metrics; nil uses Local's observer.
	Obs *obs.Observer
	// Replicas is the virtual-node count per worker on the shard ring
	// (default shard.DefaultReplicas).
	Replicas int
	// HeartbeatInterval paces the coordinator's health probes (default
	// 2s). Negative disables the background loop (tests drive ProbeAll
	// directly).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a worker may go unheard-of (no
	// successful probe, registration, or sweep) before it is marked
	// dead and leaves the ring (default 3× HeartbeatInterval).
	HeartbeatTimeout time.Duration
	// AttemptTimeout bounds one remote sub-sweep attempt; 0 means only
	// the request deadline applies.
	AttemptTimeout time.Duration
	// PeerProbeTimeout bounds one peer cache probe (default 250ms).
	PeerProbeTimeout time.Duration
	// MaxScenarioRetries is how many distinct remote attempts one
	// scenario gets before it falls back to local execution (default 2).
	MaxScenarioRetries int
	// BreakerThreshold is the consecutive-failure count that opens a
	// worker's circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker keeps its worker off
	// the ring (default 5s); after it the worker is probed again
	// (half-open) by the next heartbeat or sweep.
	BreakerCooldown time.Duration
	// MaxInFlightSweeps bounds concurrently executing distributed
	// sweeps; excess submissions shed with ErrSaturated (default 32).
	MaxInFlightSweeps int
	// RetryBackoff is the base wait between reshard rounds that made no
	// progress, doubling per barren round, capped at 16× (default 50ms).
	RetryBackoff time.Duration
	// Dial builds the Backend for a registered worker address. The
	// default dials the rdserved HTTP API via internal/service/client
	// with AttemptTimeout as the per-request timeout.
	Dial func(addr string) Backend
	// Now is the clock (tests inject a fake; default time.Now). It is
	// used only for health bookkeeping — never for shard assignment.
	Now func() time.Time
}

// workerState is a worker's lifecycle phase as reported by WorkerStatus.
const (
	WorkerLive        = "live"
	WorkerDead        = "dead"
	WorkerBreakerOpen = "breaker_open"
)

// WorkerStatus is one worker's health snapshot (GET /v1/fabric/workers).
//
// rdlint:wire — fabric introspection wire format.
type WorkerStatus struct {
	Addr                string  `json:"addr"`
	State               string  `json:"state"`
	ConsecutiveFailures int     `json:"consecutive_failures"`
	SecondsSinceSeen    float64 `json:"seconds_since_seen"`
}

// Stats is the coordinator's cumulative counter snapshot.
//
// rdlint:wire — served by GET /v1/fabric/workers.
type Stats struct {
	Workers         int   `json:"workers"`
	Live            int   `json:"live"`
	Sweeps          int64 `json:"sweeps"`
	RemoteScenarios int64 `json:"remote_scenarios"`
	LocalScenarios  int64 `json:"local_scenarios"`
	// Reshards counts scenarios re-assigned after their worker failed
	// mid-sweep (each re-assignment of each scenario counts once).
	Reshards int64 `json:"reshards"`
	// Shed counts sweeps rejected by admission control.
	Shed int64 `json:"shed"`
	// WorkerFailures counts failed remote attempts (transport errors,
	// mid-stream deaths, 5xx) across all workers.
	WorkerFailures int64 `json:"worker_failures"`
	// PeerHits mirrors the local cache's peer-tier rescues.
	PeerHits int64 `json:"peer_hits"`
}

// worker is the coordinator's book on one registered address.
type worker struct {
	addr        string
	backend     Backend
	lastSeen    time.Time
	consecFails int
	openUntil   time.Time // breaker open until this instant
	dead        bool
}

// Coordinator owns the fleet view and the distributed sweep engine.
type Coordinator struct {
	cfg  Config
	obsv *obs.Observer

	mu       sync.Mutex
	workers  map[string]*worker // guarded by mu
	order    []string           // guarded by mu; sorted addresses, the only iteration order used
	closed   bool               // guarded by mu
	inflight int                // guarded by mu
	stats    Stats              // guarded by mu

	stopOnce sync.Once
	stop     chan struct{}
	loopDone chan struct{}
}

// NewCoordinator builds and starts a coordinator, wiring the local
// service's result cache to the fabric peer tier (local LRU → peer →
// disk).
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Local == nil {
		return nil, errors.New("fabric: Config.Local is required (the coordinator must be able to run scenarios itself)")
	}
	if cfg.Obs == nil {
		cfg.Obs = cfg.Local.Obs()
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = shard.DefaultReplicas
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 2 * time.Second
	}
	if cfg.HeartbeatTimeout <= 0 {
		iv := cfg.HeartbeatInterval
		if iv < 0 {
			iv = 2 * time.Second
		}
		cfg.HeartbeatTimeout = 3 * iv
	}
	if cfg.PeerProbeTimeout <= 0 {
		cfg.PeerProbeTimeout = 250 * time.Millisecond
	}
	if cfg.MaxScenarioRetries <= 0 {
		cfg.MaxScenarioRetries = 2
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.MaxInFlightSweeps <= 0 {
		cfg.MaxInFlightSweeps = 32
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Dial == nil {
		attempt := cfg.AttemptTimeout
		cfg.Dial = func(addr string) Backend {
			cl := client.New(addr)
			cl.Timeout = attempt
			return &ClientBackend{Client: cl}
		}
	}
	c := &Coordinator{
		cfg:      cfg,
		obsv:     cfg.Obs,
		workers:  make(map[string]*worker),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	cfg.Local.Cache().SetPeer(c.peerLookup)
	if cfg.HeartbeatInterval > 0 {
		go c.heartbeatLoop()
	} else {
		close(c.loopDone)
	}
	return c, nil
}

// Close stops the heartbeat loop and detaches the peer cache tier. It
// does not interrupt in-flight sweeps.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		close(c.stop)
		c.cfg.Local.Cache().SetPeer(nil)
	})
	<-c.loopDone
}

// LocalService exposes the coordinator's own service — the fallback
// executor and the owner of the peer-wired result cache.
func (c *Coordinator) LocalService() *service.Service { return c.cfg.Local }

// Register adds a worker (or refreshes an existing one — registration
// doubles as a worker-initiated heartbeat). The address must be an
// absolute http(s) URL.
func (c *Coordinator) Register(addr string) error {
	u, err := url.Parse(addr)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("fabric: worker address %q is not an absolute URL", addr)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("fabric: worker address %q: scheme must be http or https", addr)
	}
	addr = u.Scheme + "://" + u.Host
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	now := c.cfg.Now()
	if w, ok := c.workers[addr]; ok {
		w.lastSeen = now
		w.dead = false
		return nil
	}
	c.workers[addr] = &worker{
		addr:     addr,
		backend:  c.cfg.Dial(addr),
		lastSeen: now,
	}
	c.order = append(c.order, addr)
	sort.Strings(c.order)
	return nil
}

// liveSet snapshots the workers currently eligible for work: registered,
// not dead, breaker closed (or cooled down). Addresses come back sorted,
// so ring construction is order-independent by construction.
func (c *Coordinator) liveSet() (addrs []string, backends map[string]Backend) {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	backends = make(map[string]Backend, len(c.order))
	for _, addr := range c.order {
		w := c.workers[addr]
		if w.dead || now.Before(w.openUntil) {
			continue
		}
		addrs = append(addrs, addr)
		backends[addr] = w.backend
	}
	return addrs, backends
}

// recordSuccess marks a worker healthy: failures reset, breaker closes,
// a dead worker revives.
func (c *Coordinator) recordSuccess(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[addr]; ok {
		w.lastSeen = c.cfg.Now()
		w.consecFails = 0
		w.openUntil = time.Time{}
		w.dead = false
	}
}

// recordFailure books one failed attempt against a worker and opens its
// breaker at the threshold.
func (c *Coordinator) recordFailure(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.WorkerFailures++
	w, ok := c.workers[addr]
	if !ok {
		return
	}
	w.consecFails++
	if w.consecFails >= c.cfg.BreakerThreshold {
		w.openUntil = c.cfg.Now().Add(c.cfg.BreakerCooldown)
	}
}

// heartbeatLoop probes the fleet on the configured cadence until Close.
func (c *Coordinator) heartbeatLoop() {
	defer close(c.loopDone)
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.ProbeAll(context.Background())
		}
	}
}

// ProbeAll health-checks every registered worker once, in parallel, and
// updates liveness: success refreshes lastSeen (reviving dead workers
// and closing breakers); a worker unheard-of past HeartbeatTimeout is
// marked dead. Exported so tests and single-shot tools can drive health
// without the background loop.
func (c *Coordinator) ProbeAll(ctx context.Context) {
	c.mu.Lock()
	addrs := append([]string(nil), c.order...)
	backends := make([]Backend, len(addrs))
	for i, a := range addrs {
		backends[i] = c.workers[a].backend
	}
	c.mu.Unlock()

	timeout := c.cfg.HeartbeatInterval
	if timeout <= 0 {
		timeout = time.Second
	}
	var wg sync.WaitGroup
	for i := range addrs {
		wg.Add(1)
		go func(addr string, b Backend) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			if err := b.Health(pctx); err == nil {
				c.recordSuccess(addr)
				return
			}
			c.mu.Lock()
			if w, ok := c.workers[addr]; ok {
				w.consecFails++
				if c.cfg.Now().Sub(w.lastSeen) > c.cfg.HeartbeatTimeout {
					w.dead = true
				}
			}
			c.mu.Unlock()
		}(addrs[i], backends[i])
	}
	wg.Wait()
}

// Workers snapshots every registered worker's health, sorted by address.
func (c *Coordinator) Workers() []WorkerStatus {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStatus, 0, len(c.order))
	for _, addr := range c.order {
		w := c.workers[addr]
		st := WorkerLive
		switch {
		case w.dead:
			st = WorkerDead
		case now.Before(w.openUntil):
			st = WorkerBreakerOpen
		}
		out = append(out, WorkerStatus{
			Addr:                addr,
			State:               st,
			ConsecutiveFailures: w.consecFails,
			SecondsSinceSeen:    now.Sub(w.lastSeen).Seconds(),
		})
	}
	return out
}

// Stats snapshots the cumulative counters plus the current fleet size.
func (c *Coordinator) Stats() Stats {
	live, _ := c.liveSet()
	c.mu.Lock()
	st := c.stats
	st.Workers = len(c.order)
	c.mu.Unlock()
	st.Live = len(live)
	st.PeerHits = c.cfg.Local.Cache().Stats().PeerHits
	return st
}

// peerLookup is the PeerFunc wired into the local result cache: ask the
// key's owning worker — and only it — for a cached outcome, best-effort
// under a short timeout. Probe failures never trip breakers; a missing
// answer just means the local tier walks on to disk.
func (c *Coordinator) peerLookup(ctx context.Context, key string) (sim.Outcome, bool) {
	addrs, backends := c.liveSet()
	if len(addrs) == 0 {
		return sim.Outcome{}, false
	}
	ring := shard.New(addrs, c.cfg.Replicas)
	owner, ok := ring.Owner(key)
	if !ok {
		return sim.Outcome{}, false
	}
	pctx, cancel := context.WithTimeout(ctx, c.cfg.PeerProbeTimeout)
	defer cancel()
	out, ok, err := backends[owner].CachedOutcome(pctx, key)
	if err != nil || !ok {
		return sim.Outcome{}, false
	}
	return out, true
}
