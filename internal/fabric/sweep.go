package fabric

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rdramstream/internal/fabric/shard"
	"rdramstream/internal/service"
	"rdramstream/internal/sim"
)

// Sweep is one distributed sweep in flight: a job the coordinator
// opened in its local service, whose slots it lands as workers stream
// rows back. The job answers for the sweep (ID, Done, WaitResult,
// Status, Summary), so the service's own handlers stream it and serve it
// at GET /v1/jobs/{id}.
type Sweep struct {
	*service.Job
	co  *Coordinator
	scs []sim.Scenario

	reshards atomic.Int64
	dupes    atomic.Int64 // rows a worker sent for an already-landed slot (dropped)
}

// Reshards reports how many scenario re-assignments failover performed.
func (sw *Sweep) Reshards() int64 { return sw.reshards.Load() }

// Duplicates reports rows a worker sent for a slot that had already
// landed (always dropped; nonzero only if a worker misbehaves).
func (sw *Sweep) Duplicates() int64 { return sw.dupes.Load() }

// landRow lands a worker's row for scenario gi. A late duplicate (a
// misbehaving worker sending a row for a slot failover already refilled)
// is counted and dropped, keeping the merged stream duplicate-free by
// construction.
func (sw *Sweep) landRow(gi int, l service.SweepLine) {
	if !sw.Land(gi, service.ScenarioResult{Label: l.Label, Cached: l.Cached, Outcome: l.Outcome, Error: l.Error}) {
		sw.dupes.Add(1)
	}
}

// StartSweep admits and launches a distributed sweep; ErrSaturated means
// admission control shed it. Admission comes first, then the local
// service opens the sweep's job, validating and keying every scenario (a
// malformed sweep is rejected whole): a shed sweep leaves no job behind.
// ctx scopes the whole sweep: when it is canceled, unlanded scenarios
// fail with its cause so no waiter hangs.
func (c *Coordinator) StartSweep(ctx context.Context, scs []sim.Scenario) (*Sweep, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.inflight >= c.cfg.MaxInFlightSweeps {
		c.stats.Shed++
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %d in flight", ErrSaturated, c.cfg.MaxInFlightSweeps)
	}
	c.inflight++
	c.mu.Unlock()

	job, err := c.cfg.Local.Open(ctx, scs)
	c.mu.Lock()
	if err != nil {
		c.inflight--
	} else {
		c.stats.Sweeps++
	}
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	sw := &Sweep{Job: job, co: c, scs: scs}
	go sw.run(ctx)
	return sw, nil
}

// Submit starts a distributed sweep and returns its job: the
// HandlerOptions.Submit of the coordinator's handler.
func (c *Coordinator) Submit(ctx context.Context, scs []sim.Scenario) (*service.Job, error) {
	sw, err := c.StartSweep(ctx, scs)
	if err != nil {
		return nil, err
	}
	return sw.Job, nil
}

// RunAll runs scs through the fabric and collects the outcomes in input
// order — the distributed drop-in for sim.RunAll, and the byte-identity
// oracle's left-hand side in the chaos tests. Any per-scenario error
// aborts with that scenario's error, mirroring local sweep semantics.
func (c *Coordinator) RunAll(ctx context.Context, scs []sim.Scenario) ([]sim.Outcome, error) {
	sw, err := c.StartSweep(ctx, scs)
	if err != nil {
		return nil, err
	}
	outs := make([]sim.Outcome, len(scs))
	for i := range scs {
		res, err := sw.WaitResult(ctx, i)
		if err != nil {
			return nil, err
		}
		if res.Error != "" {
			return nil, fmt.Errorf("fabric: scenario %d (%s): %s", i, res.Label, res.Error)
		}
		outs[i] = *res.Outcome
	}
	return outs, nil
}

// group is one round's work for one destination.
type group struct {
	addr string // "" = local
	idx  []int  // global scenario indices, ascending
}

// run is the sweep engine: round after round, assign pending scenarios
// to live workers by consistent hash (exhausted or unassignable ones to
// the local service), execute the groups in parallel, and re-shard
// whatever a failed worker left unacknowledged. Terminates because every
// round either lands scenarios or burns remote attempts, and a scenario
// out of attempts runs locally, which always lands a terminal line.
func (sw *Sweep) run(ctx context.Context) {
	c := sw.co
	defer func() {
		c.mu.Lock()
		c.inflight--
		c.mu.Unlock()
	}()

	pending := allIndices(len(sw.scs))
	attempts := make([]int, len(sw.scs))
	backoff := c.cfg.RetryBackoff

	for len(pending) > 0 && ctx.Err() == nil {
		addrs, backends := c.liveSet()
		ring := shard.New(addrs, c.cfg.Replicas)

		// Assign in ascending index order: deterministic grouping, and
		// each worker receives its sub-sweep in global input order.
		var groups []group
		byAddr := make(map[string]int, len(addrs))
		var local []int
		for _, i := range pending {
			if attempts[i] >= c.cfg.MaxScenarioRetries {
				local = append(local, i)
				continue
			}
			owner, ok := ring.Owner(sw.Key(i))
			if !ok {
				local = append(local, i)
				continue
			}
			gi, seen := byAddr[owner]
			if !seen {
				gi = len(groups)
				byAddr[owner] = gi
				groups = append(groups, group{addr: owner})
			}
			groups[gi].idx = append(groups[gi].idx, i)
		}

		unacked := make([][]int, len(groups))
		var wg sync.WaitGroup
		for gi := range groups {
			wg.Add(1)
			go func(gi int) {
				defer wg.Done()
				g := groups[gi]
				unacked[gi] = sw.runRemote(ctx, backends[g.addr], g)
			}(gi)
		}
		if len(local) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sw.runLocal(ctx, local)
			}()
		}
		wg.Wait()

		var next []int
		for _, u := range unacked {
			next = append(next, u...)
		}
		sort.Ints(next)
		for _, i := range next {
			attempts[i]++
		}
		if len(next) > 0 {
			sw.reshards.Add(int64(len(next)))
			c.mu.Lock()
			c.stats.Reshards += int64(len(next))
			c.mu.Unlock()
		}
		progressed := len(next) < len(pending)
		pending = next
		if len(pending) > 0 && !progressed {
			// A barren round: every assignment failed. Back off before
			// re-sharding so a flapping fleet isn't hammered, doubling up
			// to a cap; any progress resets the backoff.
			select {
			case <-ctx.Done():
			case <-time.After(backoff):
			}
			if backoff < 16*c.cfg.RetryBackoff {
				backoff *= 2
			}
		} else {
			backoff = c.cfg.RetryBackoff
		}
	}

	// Canceled mid-flight: land the cancellation cause in every empty
	// slot so no waiter hangs. Landed slots keep their rows.
	if err := ctx.Err(); err != nil {
		sw.landAll(allIndices(len(sw.scs)), context.Cause(ctx))
	}
}

// runRemote streams one worker's sub-sweep, landing rows as they arrive,
// and returns the global indices the worker never acknowledged (nil on
// full success). Any failure — transport, mid-stream death, a malformed
// row — books one failure against the worker and hands the remainder
// back for re-sharding.
func (sw *Sweep) runRemote(ctx context.Context, b Backend, g group) (unackedIdx []int) {
	c := sw.co
	sub := make([]sim.Scenario, len(g.idx))
	for p, i := range g.idx {
		sub[p] = sw.scs[i]
	}
	acked := make([]bool, len(g.idx))
	attemptCtx := ctx
	if c.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		attemptCtx, cancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
		defer cancel()
	}
	_, err := b.Sweep(attemptCtx, sub, func(l service.SweepLine) error {
		p := l.Index
		if p < 0 || p >= len(g.idx) || acked[p] {
			return fmt.Errorf("fabric: worker %s emitted bogus row index %d (sub-sweep of %d)", g.addr, p, len(g.idx))
		}
		if l.Outcome == nil && l.Error == "" {
			return fmt.Errorf("fabric: worker %s sent row %d with neither outcome nor error", g.addr, p)
		}
		acked[p] = true
		sw.landRow(g.idx[p], l)
		return nil
	})
	c.mu.Lock()
	c.stats.RemoteScenarios += int64(len(g.idx))
	c.mu.Unlock()
	if err == nil {
		// Defensive: a summary without every row is a worker bug; treat
		// missing rows like a failure so they re-shard.
		missing := unackedOf(g.idx, acked)
		if len(missing) == 0 {
			c.recordSuccess(g.addr)
			return nil
		}
		c.recordFailure(g.addr)
		return missing
	}
	c.recordFailure(g.addr)
	return unackedOf(g.idx, acked)
}

// unackedOf maps unacknowledged sub-positions back to global indices.
func unackedOf(idx []int, acked []bool) []int {
	var out []int
	for p, i := range idx {
		if !acked[p] {
			out = append(out, i)
		}
	}
	return out
}

// runLocal executes indices on the coordinator's own service — the
// bottom of the degradation ladder. Every index lands a terminal result:
// local execution is never re-sharded.
func (sw *Sweep) runLocal(ctx context.Context, idx []int) {
	c := sw.co
	sub := make([]sim.Scenario, len(idx))
	for p, i := range idx {
		sub[p] = sw.scs[i]
	}
	c.mu.Lock()
	c.stats.LocalScenarios += int64(len(idx))
	c.mu.Unlock()
	job, err := c.cfg.Local.Submit(ctx, sub)
	if err != nil {
		sw.landAll(idx, err)
		return
	}
	for p, i := range idx {
		res, err := job.WaitResult(ctx, p)
		if err != nil {
			res = service.ScenarioResult{Label: sw.scs[i].Label(), Error: err.Error()}
		}
		sw.Land(i, res)
	}
}

// landAll lands err in each of the given slots that has not landed yet.
func (sw *Sweep) landAll(idx []int, err error) {
	for _, i := range idx {
		sw.Land(i, service.ScenarioResult{Label: sw.scs[i].Label(), Error: err.Error()})
	}
}

// allIndices returns 0, 1, …, n-1.
func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
