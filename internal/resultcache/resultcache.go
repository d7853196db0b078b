// Package resultcache memoizes simulation outcomes behind a canonical,
// content-addressed key. It is the serving layer's answer to the cost of
// cycle-accurate simulation: every figure, sweep, and API request that
// names a scenario already simulated — by anyone, at any worker count —
// is answered from the cache with an outcome bit-identical to a fresh
// sim.Run.
//
// Three layers compose:
//
//   - Key: a SHA-256 over the scenario's canonical form (sim.Canonical:
//     defaults filled, controller resolved by registry name, observers
//     dropped) plus the device, cache, and fault configurations and the
//     build's version.Stamp. Equal simulations hash equal regardless of
//     how the scenario was spelled; any model or version change changes
//     every key.
//   - a tiered store: an in-memory LRU bounded by entry count, an
//     optional peer tier (PeerFunc — the fabric coordinator wires one
//     that asks the key's owning worker), and an optional on-disk JSON
//     store (one file per key) that survives restarts and is shared
//     between processes; misses walk memory → peer → disk, and finds
//     from the outer tiers are promoted to memory;
//   - singleflight deduplication: identical scenarios requested
//     concurrently run once, and every waiter receives the same outcome.
//
// An entry keeps its outcome's JSON beside the outcome from its first
// hit on (Result.JSON): the service's response bodies and the disk entry
// file are Envelopes around those bytes, so hits after the first never
// re-encode their outcome. Entries that are never hit, such as a stream
// of one-off misses, keep no bytes.
//
// Determinism contract: the cache stores outcomes by value and never
// re-derives them, so a hit is the bit pattern the original sim.Run
// produced. JSON round-trips through the disk store are exact — Go
// encodes float64 with the shortest representation that parses back to
// the same bits, and outcomes never carry NaN or Inf.
package resultcache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"rdramstream/internal/sim"
	"rdramstream/internal/version"
)

// Runner executes one scenario on a cache miss. The default is sim.Run;
// the service layer substitutes a runner that attaches telemetry first.
type Runner func(sim.Scenario) (sim.Outcome, error)

// PeerFunc consults a remote cache tier for a key — the fabric
// coordinator wires one that asks the key's owning worker. It must be
// best-effort and purely observational: return ok=false on any doubt
// (miss, timeout, transport failure) and never influence the outcome a
// fresh run would produce. The cache calls it between the in-memory LRU
// and the disk store, so the tier order is local LRU → peer → disk.
type PeerFunc func(ctx context.Context, key string) (sim.Outcome, bool)

// Options configures a Cache. The zero value is usable: 1024 in-memory
// entries, no disk store.
type Options struct {
	// MaxEntries bounds the in-memory LRU (default 1024; the LRU always
	// holds at least one entry).
	MaxEntries int
	// Dir, when non-empty, enables the on-disk store: one JSON file per
	// key under this directory, created on first use. Disk entries whose
	// version stamp no longer matches the binary are ignored.
	Dir string
	// Peer, when non-nil, is the remote tier consulted on an in-memory
	// miss, before disk. It can also be wired after construction with
	// SetPeer (the fabric coordinator learns its workers at runtime).
	Peer PeerFunc
}

// Stats is a point-in-time snapshot of the cache's counters. All
// counters are read under one lock, and related counters are incremented
// under that same lock in one step, so a snapshot is internally
// consistent: DiskHits never exceeds Hits, and Hits+Misses+Dedups equals
// the number of requests classified so far (every Do/DoKey, and every Hit
// that found its key) — no torn-counter skew under concurrent load
// (race-tested).
type Stats struct {
	// Hits counts requests answered from memory, Misses requests that ran
	// a simulation.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// DiskHits counts Do lookups rescued by the on-disk store and
	// promoted to memory. A Do rescued by disk also counts as a Hit, so
	// DiskHits is a subset of Hits and disjoint from Misses.
	DiskHits int64 `json:"disk_hits"`
	// PeerHits counts Do lookups rescued by the peer tier and promoted
	// to memory. Like DiskHits, a subset of Hits, disjoint from both
	// DiskHits and Misses.
	PeerHits int64 `json:"peer_hits"`
	// Dedups counts requests that piggybacked on an identical in-flight
	// simulation instead of starting their own.
	Dedups int64 `json:"dedups"`
	// Evictions counts LRU entries displaced by newer ones.
	Evictions int64 `json:"evictions"`
	// DiskErrors counts best-effort disk reads/writes that failed; the
	// cache degrades to memory-only rather than failing requests.
	DiskErrors int64 `json:"disk_errors"`
	// Entries is the current in-memory entry count.
	Entries int `json:"entries"`
}

// Cache is a content-addressed store of simulation outcomes. All methods
// are safe for concurrent use.
type Cache struct {
	maxEntries int
	disk       *diskStore // nil when no Dir was configured
	vstamp     string

	mu      sync.Mutex
	order   *list.List               // guarded by mu; front = most recently used
	entries map[string]*list.Element // guarded by mu; key -> element whose Value is *entry

	flightMu sync.Mutex
	inflight map[string]*flight // guarded by flightMu

	// peerMu guards peer, which can be wired after construction
	// (SetPeer) once the fabric coordinator knows its workers.
	peerMu sync.RWMutex
	peer   PeerFunc // guarded by peerMu

	// statsMu guards every counter as one group: increments that belong
	// together (a disk rescue is a Hit AND a DiskHit) happen in a single
	// critical section, and Stats reads them all in one, so a concurrent
	// snapshot can never observe DiskHits > Hits or similar skew.
	statsMu sync.Mutex
	stats   Stats // guarded by statsMu
}

// count runs one grouped counter mutation under the stats lock.
func (c *Cache) count(f func(*Stats)) {
	c.statsMu.Lock()
	f(&c.stats)
	c.statsMu.Unlock()
}

// Result is one cached outcome with its JSON encoding.
type Result struct {
	Outcome sim.Outcome
	// JSON is Outcome encoded as the fragment an Envelope embeds. An
	// entry encodes it on its first hit and keeps it, so every later hit
	// shares the same bytes: they must not be modified. A miss encodes
	// its own for its response and the disk store. It is nil when
	// Outcome has no JSON encoding (a NaN or Inf, which outcomes never
	// carry).
	JSON []byte
}

type entry struct {
	key string
	res Result
}

// flight is one in-progress simulation shared by all concurrent callers
// with the same key.
type flight struct {
	done chan struct{}
	res  Result
	err  error
}

// New builds a Cache. The disk directory, when configured, is created
// immediately so a misconfigured path fails at construction, not on the
// first miss.
func New(o Options) (*Cache, error) {
	if o.MaxEntries <= 0 {
		o.MaxEntries = 1024
	}
	c := &Cache{
		maxEntries: o.MaxEntries,
		vstamp:     version.Stamp(),
		order:      list.New(),
		entries:    make(map[string]*list.Element),
		inflight:   make(map[string]*flight),
		peer:       o.Peer,
	}
	if o.Dir != "" {
		d, err := newDiskStore(o.Dir)
		if err != nil {
			return nil, fmt.Errorf("resultcache: %w", err)
		}
		c.disk = d
	}
	return c, nil
}

// SetPeer installs (or clears, with nil) the peer tier. Safe to call
// concurrently with lookups; in-flight lookups may still use the old
// func.
func (c *Cache) SetPeer(p PeerFunc) {
	c.peerMu.Lock()
	c.peer = p
	c.peerMu.Unlock()
}

func (c *Cache) peerFunc() PeerFunc {
	c.peerMu.RLock()
	p := c.peer
	c.peerMu.RUnlock()
	return p
}

// Key returns the content address of a scenario: a hex SHA-256 over its
// canonical form and the build's version stamp. Scenarios that simulate
// identically key identically — Mode vs. Controller spelling, omitted vs.
// explicit defaults, and attached observers all collapse — and the key is
// independent of field declaration order because the digest input is a
// field list sorted by name: one "name=value" line per field, written
// here in name order into one buffer.
//
// rdlint:canonconsumer — canoncheck requires every exported Scenario
// field (transitively) to be named here, folded whole via %+v, or
// consumed by Canonical; a new field that misses the key is a lint
// error instead of a cross-worker cache collision.
func Key(sc sim.Scenario) (string, error) {
	canon, err := sc.Canonical()
	if err != nil {
		return "", err
	}
	b := make([]byte, 0, 1024)
	b = fmt.Appendf(b, "cache=%+v", canon.Cache)
	b = append(append(b, "\ncontroller="...), canon.Controller...)
	b = fmt.Appendf(b, "\ndevice=%+v", canon.Device)
	b = fmt.Appendf(b, "\nfault=%+v", canon.Fault)
	b = strconv.AppendInt(append(b, "\nfifoDepth="...), int64(canon.FIFODepth), 10)
	b = append(append(b, "\nkernel="...), canon.KernelName...)
	b = strconv.AppendInt(append(b, "\nlineWords="...), int64(canon.LineWords), 10)
	b = strconv.AppendInt(append(b, "\nn="...), int64(canon.N), 10)
	b = strconv.AppendInt(append(b, "\nplacement="...), int64(canon.Placement), 10)
	b = strconv.AppendInt(append(b, "\npolicy="...), int64(canon.Policy), 10)
	b = strconv.AppendInt(append(b, "\nscheme="...), int64(canon.Scheme), 10)
	b = strconv.AppendInt(append(b, "\nseed="...), canon.Seed, 10)
	b = strconv.AppendBool(append(b, "\nskipVerify="...), canon.SkipVerify)
	b = strconv.AppendBool(append(b, "\nspeculate="...), canon.SpeculateActivate)
	b = strconv.AppendInt(append(b, "\nstride="...), canon.Stride, 10)
	// Canonical trace specs carry only the materialized trace's content
	// digest (and the pipeline depth), so this field is a fixed-size
	// string however large the trace is — and a program keys identically
	// to the access list it expands to.
	b = fmt.Appendf(b, "\ntrace=%+v", canon.Workload)
	b = append(append(b, "\nversion="...), version.Stamp()...)
	b = strconv.AppendInt(append(b, "\nwatchdog="...), canon.WatchdogLimit, 10)
	b = strconv.AppendBool(append(b, "\nwriteAllocate="...), canon.WriteAllocate)
	sum := sha256.Sum256(b)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:]), nil
}

// Get looks the scenario up in memory (and then on disk, promoting a find
// to memory) without running anything. The boolean reports a hit. Get
// touches no hit/miss counters — only Do, DoKey and Hit classify
// requests — so probing the cache never skews the serving metrics.
func (c *Cache) Get(sc sim.Scenario) (sim.Outcome, bool, error) {
	key, err := Key(sc)
	if err != nil {
		return sim.Outcome{}, false, err
	}
	res, ok, _ := c.lookup(context.Background(), key)
	return res.Outcome, ok, nil
}

// tier says where a lookup find came from.
type tier int

const (
	tierMemory tier = iota
	tierPeer
	tierDisk
)

// lookup checks the tiers in order — memory, peer, disk — reporting
// where the find came from. It touches no hit/miss counters — DoKey owns
// those and folds the tier into its own grouped increment, so a peer or
// disk rescue counts as Hit+PeerHit/DiskHit in one consistent step. ctx
// bounds only the peer consult (the remote call); memory and disk are
// local and unconditional.
func (c *Cache) lookup(ctx context.Context, key string) (res Result, ok bool, src tier) {
	if res, ok := c.memory(key); ok {
		return res, true, tierMemory
	}
	if peer := c.peerFunc(); peer != nil && ctx.Err() == nil {
		if out, ok := peer(ctx, key); ok {
			// A peer holds it durably; promote to memory only.
			res = Encode(out)
			c.store(key, res)
			return res, true, tierPeer
		}
	}
	if c.disk == nil {
		return Result{}, false, tierMemory
	}
	out, ok, err := c.disk.load(key, c.vstamp)
	if err != nil {
		c.count(func(s *Stats) { s.DiskErrors++ })
		return Result{}, false, tierMemory
	}
	if !ok {
		return Result{}, false, tierMemory
	}
	// Already on disk; promote to memory only.
	res = Encode(out)
	c.store(key, res)
	return res, true, tierDisk
}

// memory looks key up in the in-memory LRU, marking a find most
// recently used. A find is a hit: an entry not yet encoded is encoded
// now, outside the lock, and keeps its bytes. It touches no counters.
func (c *Cache) memory(key string) (Result, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return Result{}, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*entry)
	res := e.res
	c.mu.Unlock()
	if res.JSON == nil {
		res = Encode(res.Outcome)
		c.mu.Lock()
		if e.res.JSON == nil {
			e.res.JSON = res.JSON
		}
		c.mu.Unlock()
	}
	return res, true
}

// Hit looks a key (from Key) up in the in-memory tier only — never the
// peer or disk tier, so it does no I/O and never blocks on a
// simulation — and counts a find as a Hit. A miss touches no counter:
// the request is classified later by the DoKey that serves it, so
// Hits, Misses and Dedups still partition the requests. The service
// calls it at submit time to answer memory hits without queueing them.
func (c *Cache) Hit(key string) (Result, bool) {
	res, ok := c.memory(key)
	if ok {
		c.count(func(s *Stats) { s.Hits++ })
	}
	return res, ok
}

// Peek looks a raw key up in the local tiers only — memory, then disk,
// never the peer tier — and touches no counters. It is what a server
// answers peer probes (GET /v1/cache/{key}) from; skipping the peer tier
// here is what makes probe forwarding loops impossible.
func (c *Cache) Peek(key string) (Result, bool) {
	if res, ok := c.memory(key); ok {
		return res, true
	}
	if c.disk == nil {
		return Result{}, false
	}
	out, ok, err := c.disk.load(key, c.vstamp)
	if err != nil || !ok {
		return Result{}, false
	}
	res := Encode(out)
	c.store(key, res)
	return res, true
}

// store inserts an entry into the LRU, evicting from the back past
// capacity. An entry already there keeps its encoding if it has one.
func (c *Cache) store(key string, res Result) {
	evicted := 0
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		if e := el.Value.(*entry); e.res.JSON == nil {
			e.res = res
		}
	} else {
		c.entries[key] = c.order.PushFront(&entry{key: key, res: res})
		for c.order.Len() > c.maxEntries {
			back := c.order.Back()
			delete(c.entries, back.Value.(*entry).key)
			c.order.Remove(back)
			evicted++
		}
	}
	c.mu.Unlock()
	if evicted > 0 {
		// Counted outside c.mu: statsMu is a leaf lock, never nested
		// inside another of the cache's locks.
		c.count(func(s *Stats) { s.Evictions += int64(evicted) })
	}
}

// save persists an encoded outcome to the disk store, best-effort.
func (c *Cache) save(key string, frag []byte) {
	if c.disk == nil {
		return
	}
	if err := c.disk.save(key, c.vstamp, frag); err != nil {
		c.count(func(s *Stats) { s.DiskErrors++ })
	}
}

// ErrCanceled wraps the context error of a request abandoned while
// waiting on an in-flight identical simulation.
var ErrCanceled = errors.New("resultcache: request canceled")

// ErrPanic wraps a panic recovered from a runner. Like any other error it
// is never cached, so a panicking scenario re-runs on the next request.
var ErrPanic = errors.New("resultcache: simulation panicked")

// safeRun executes run, converting a panic into an error so a panicking
// scenario cannot unwind through Do past the flight bookkeeping.
func safeRun(run Runner, sc sim.Scenario) (out sim.Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = sim.Outcome{}, fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	return run(sc)
}

// Do returns the scenario's outcome, running it at most once: a memory or
// disk hit answers immediately (hit=true); otherwise the first caller for
// this key executes run (sim.Run when run is nil) and every concurrent
// caller with the same key waits for that one execution. Errors are never
// cached — a failed scenario re-runs on the next request.
//
// ctx bounds only the wait of deduplicated followers; the leader's
// simulation runs to completion so its result can serve other waiters.
func (c *Cache) Do(ctx context.Context, sc sim.Scenario, run Runner) (sim.Outcome, bool, error) {
	key, err := Key(sc)
	if err != nil {
		return sim.Outcome{}, false, err
	}
	res, hit, err := c.DoKey(ctx, key, sc, run)
	return res.Outcome, hit, err
}

// DoKey is Do for a caller that already holds the scenario's key
// (Key(sc)), so a request hashes its scenario once however many cache
// calls it makes. It returns the entry with its encoded outcome.
func (c *Cache) DoKey(ctx context.Context, key string, sc sim.Scenario, run Runner) (Result, bool, error) {
	if res, ok, src := c.lookup(ctx, key); ok {
		c.count(func(s *Stats) {
			s.Hits++
			switch src {
			case tierPeer:
				s.PeerHits++
			case tierDisk:
				s.DiskHits++
			}
		})
		return res, true, nil
	}
	if run == nil {
		run = sim.Run
	}

	c.flightMu.Lock()
	if fl, ok := c.inflight[key]; ok {
		c.flightMu.Unlock()
		c.count(func(s *Stats) { s.Dedups++ })
		select {
		case <-fl.done:
			return fl.res, false, fl.err
		case <-ctx.Done():
			return Result{}, false, fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
		}
	}
	// Re-check memory while still holding flightMu: another leader may
	// have stored its outcome and retired its flight between our initial
	// lookup miss and here. Only the in-memory map is consulted — the race
	// being closed is with an in-process leader, which always stores to
	// memory, and a disk read is too slow to hold flightMu across.
	if res, ok := c.memory(key); ok {
		c.flightMu.Unlock()
		c.count(func(s *Stats) { s.Hits++ })
		return res, true, nil
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.flightMu.Unlock()

	// Retire the flight on every exit path — safeRun converts runner
	// panics into fl.err, and this defer covers anything else that could
	// unwind — so waiters are never left blocked on a dead flight.
	defer func() {
		c.flightMu.Lock()
		delete(c.inflight, key)
		c.flightMu.Unlock()
		close(fl.done)
	}()

	c.count(func(s *Stats) { s.Misses++ })
	out, err := safeRun(run, sc)
	fl.res, fl.err = Result{Outcome: out}, err
	if err == nil {
		// The entry keeps the outcome alone until its first hit; the
		// encoding made here serves this miss's callers and the disk.
		c.store(key, fl.res)
		fl.res = Encode(out)
		c.save(key, fl.res.JSON)
	}
	return fl.res, false, fl.err
}

// Stats snapshots the counters in one consistent read: every counter
// comes from a single statsMu critical section, so cross-counter
// invariants (DiskHits ⊆ Hits; Hits/Misses/Dedups partition classified
// requests) hold in every snapshot, not just at quiescence.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	n := c.order.Len()
	c.mu.Unlock()
	c.statsMu.Lock()
	st := c.stats
	c.statsMu.Unlock()
	st.Entries = n
	return st
}
