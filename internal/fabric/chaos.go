package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"rdramstream/internal/service"
	"rdramstream/internal/sim"
)

// ErrChaosKill is the injected mid-stream failure; errors.Is-matchable
// so tests can distinguish injected faults from real ones.
var ErrChaosKill = errors.New("fabric: chaos kill")

// ChaosPlan scripts one worker's misbehavior. The zero plan is a healthy
// worker. All triggers are deterministic functions of call counts —
// never of time — so a (seed, fleet) pair replays the exact same fault
// schedule on every run.
type ChaosPlan struct {
	// KillAfterRows, when > 0, fails a sweep with ErrChaosKill after
	// emitting that many rows (1 = die after the first row — the
	// mid-stream partial-results case).
	KillAfterRows int
	// StallAfterRows, when > 0, blocks a sweep after that many rows
	// until its context expires — the hung-worker case, exercising
	// attempt timeouts.
	StallAfterRows int
	// FailHealth makes health probes fail while the plan is active.
	FailHealth bool
	// MisbehaveSweeps bounds how many sweep calls the plan sabotages;
	// after that the worker behaves (0 = misbehave forever).
	MisbehaveSweeps int
}

// ChaosBackend wraps a Backend with a scripted fault plan.
type ChaosBackend struct {
	Inner Backend
	Plan  ChaosPlan

	mu     sync.Mutex
	sweeps int   // guarded by mu
	kills  int64 // guarded by mu
	stalls int64 // guarded by mu
}

// Kills reports how many sweeps the plan killed mid-stream.
func (b *ChaosBackend) Kills() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.kills
}

// Stalls reports how many sweeps the plan stalled.
func (b *ChaosBackend) Stalls() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stalls
}

// active reports whether this sweep call (1-based) still misbehaves.
func (b *ChaosBackend) active(call int) bool {
	return b.Plan.MisbehaveSweeps == 0 || call <= b.Plan.MisbehaveSweeps
}

// Health fails while the plan is active and FailHealth is set.
func (b *ChaosBackend) Health(ctx context.Context) (string, error) {
	b.mu.Lock()
	sab := b.Plan.FailHealth && b.active(b.sweeps+1)
	b.mu.Unlock()
	if sab {
		return "", fmt.Errorf("%w: health probe sabotaged", ErrChaosKill)
	}
	return b.Inner.Health(ctx)
}

// Sweep runs the inner sweep, counting delivered rows and injecting the
// plan's fault at its scripted row. Rows delivered before the fault
// stand — exactly the partial-progress shape a real mid-stream death
// leaves behind.
func (b *ChaosBackend) Sweep(ctx context.Context, scs []sim.Scenario, fn func(service.SweepLine) error) (service.SweepLine, error) {
	b.mu.Lock()
	b.sweeps++
	sab := b.active(b.sweeps)
	plan := b.Plan
	b.mu.Unlock()
	if !sab {
		return b.Inner.Sweep(ctx, scs, fn)
	}
	rows := 0
	summary, err := b.Inner.Sweep(ctx, scs, func(l service.SweepLine) error {
		if plan.KillAfterRows > 0 && rows >= plan.KillAfterRows {
			return fmt.Errorf("%w: after %d rows", ErrChaosKill, rows)
		}
		if plan.StallAfterRows > 0 && rows >= plan.StallAfterRows {
			b.mu.Lock()
			b.stalls++
			b.mu.Unlock()
			<-ctx.Done()
			return context.Cause(ctx)
		}
		rows++
		if fn != nil {
			return fn(l)
		}
		return nil
	})
	if errors.Is(err, ErrChaosKill) {
		b.mu.Lock()
		b.kills++
		b.mu.Unlock()
	}
	return summary, err
}

// CachedOutcome passes through: the chaos harness targets the sweep and
// health paths, not the best-effort peer cache tier.
func (b *ChaosBackend) CachedOutcome(ctx context.Context, key string) (sim.Outcome, bool, error) {
	return b.Inner.CachedOutcome(ctx, key)
}

var _ Backend = (*ChaosBackend)(nil)

// splitmix64 is the chaos schedule's PRNG — tiny, seedable, and stable
// across Go releases (unlike math/rand's unexported generator), so a
// seed names the same schedule forever.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SeededPlans derives a deterministic fault schedule for n workers from
// a seed: roughly half the fleet misbehaves (at least one worker when
// n > 0), each saboteur killing or stalling after a scripted row within
// [1, rows]. Same (seed, n, rows) → same plans, every run.
func SeededPlans(seed int64, n, rows int) []ChaosPlan {
	if rows < 1 {
		rows = 1
	}
	rng := splitmix64(seed)
	plans := make([]ChaosPlan, n)
	sabotaged := 0
	for i := range plans {
		r := rng.next()
		if r%2 == 0 && sabotaged > 0 {
			continue // healthy worker
		}
		sabotaged++
		p := ChaosPlan{MisbehaveSweeps: 1 + int(r>>8%2)}
		at := 1 + int(r>>16%uint64(rows))
		if r>>4%4 == 0 {
			p.StallAfterRows = at
		} else {
			p.KillAfterRows = at
			p.FailHealth = r>>32%2 == 0
		}
		plans[i] = p
	}
	return plans
}
