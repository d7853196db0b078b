package fabric

import (
	"context"

	"rdramstream/internal/resultcache"
	"rdramstream/internal/service"
	"rdramstream/internal/service/client"
	"rdramstream/internal/sim"
)

// ClientBackend is the production Backend: one worker reached over the
// rdserved HTTP API via internal/service/client.
type ClientBackend struct {
	Client *client.Client
}

// Health probes GET /healthz.
func (b *ClientBackend) Health(ctx context.Context) error {
	_, err := b.Client.Health(ctx)
	return err
}

// Sweep streams POST /v1/sweep; the client already hands fn only
// per-scenario lines and returns the trailing summary.
func (b *ClientBackend) Sweep(ctx context.Context, scs []sim.Scenario, fn func(service.SweepLine) error) (service.SweepLine, error) {
	return b.Client.Sweep(ctx, scs, fn)
}

// CachedOutcome probes GET /v1/cache/{key}.
func (b *ClientBackend) CachedOutcome(ctx context.Context, key string) (sim.Outcome, bool, error) {
	return b.Client.CachedOutcome(ctx, key)
}

// ServiceBackend adapts an in-process service.Service to the Backend
// interface — a worker without the HTTP hop, for the tests and the chaos
// harness.
type ServiceBackend struct {
	Svc *service.Service
}

// Health always succeeds while the service accepts work.
func (b *ServiceBackend) Health(ctx context.Context) error { return ctx.Err() }

// Sweep submits the scenarios as one job and emits lines to fn in input
// order as results land, mirroring the HTTP stream's contract.
func (b *ServiceBackend) Sweep(ctx context.Context, scs []sim.Scenario, fn func(service.SweepLine) error) (service.SweepLine, error) {
	job, err := b.Svc.Submit(ctx, scs)
	if err != nil {
		return service.SweepLine{}, err
	}
	for i := range scs {
		res, err := job.WaitResult(ctx, i)
		if err != nil {
			return service.SweepLine{}, err
		}
		if fn != nil {
			if err := fn(res.Line()); err != nil {
				return service.SweepLine{}, err
			}
		}
	}
	return job.Summary(), nil
}

// CachedOutcome peeks the service's result cache locally (memory or
// disk) — never its peer tier, so probes cannot loop.
func (b *ServiceBackend) CachedOutcome(ctx context.Context, key string) (sim.Outcome, bool, error) {
	if err := ctx.Err(); err != nil {
		return sim.Outcome{}, false, err
	}
	res, ok := b.Svc.Cache().Peek(key)
	return res.Outcome, ok, nil
}

// compile-time interface checks
var (
	_ Backend              = (*ClientBackend)(nil)
	_ Backend              = (*ServiceBackend)(nil)
	_ resultcache.PeerFunc = (*Coordinator)(nil).peerLookup
)
