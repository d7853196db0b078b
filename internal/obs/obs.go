// Package obs is the serving stack's request-level observability layer:
// request traces with per-stage spans, a bounded in-memory trace ring,
// and a Prometheus-style metrics registry built on telemetry.Histogram.
//
// It complements internal/telemetry, which observes *simulated* time at
// cycle granularity inside one run. obs observes *wall-clock* time across
// the request path — HTTP decode, queue wait, batch formation, cache
// lookup, singleflight, engine execution, response streaming — where the
// determinism rules of the simulation core do not apply: obs is
// deliberately outside the rdlint determinism analyzer's banned set
// (rdram/smc/natorder/engine/sim/fault/resultcache), and nothing in this
// package may be imported by those packages. Wall timing lives here and
// in internal/service; simulated outcomes never depend on it.
//
// Two pieces compose:
//
//   - Trace / Ring (trace.go): one Trace per HTTP request, identified by
//     a deterministic-format request ID (client-supplied X-Request-ID or
//     generated "req-%06d"), carrying bounded per-stage spans. Finished
//     and in-flight traces live in a fixed-capacity ring, exportable as
//     JSON, JSONL, or Chrome trace via the telemetry exporters.
//   - Registry (prom.go): monotonic counters, gauges, and fixed-bucket
//     latency histograms with label sets, rendered in Prometheus text
//     exposition format (format=0.0.4).
package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// ObserverOptions sizes an Observer. The zero value is usable.
type ObserverOptions struct {
	// RingSize bounds the trace ring (default DefaultRingSize).
	RingSize int
	// Now overrides the clock (tests). Nil means time.Now.
	Now func() time.Time
}

// DefaultRingSize is the default trace-ring capacity.
const DefaultRingSize = 256

// Observer bundles one server's observability state: the metrics
// registry, the trace ring, the request-ID sequence, and the clock every
// timing site shares (so tests can inject a fake one).
type Observer struct {
	// Reg is the metrics registry served at /metrics.
	Reg *Registry
	// Ring holds the recent request traces.
	Ring *Ring

	now func() time.Time
	seq atomic.Int64
}

// NewObserver builds an Observer.
func NewObserver(o ObserverOptions) *Observer {
	if o.RingSize <= 0 {
		o.RingSize = DefaultRingSize
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return &Observer{
		Reg:  NewRegistry(),
		Ring: NewRing(o.RingSize),
		now:  o.Now,
	}
}

// Now reads the observer's clock. Nil-safe: a nil observer falls back to
// time.Now so uninstrumented services still get sane timestamps.
func (o *Observer) Now() time.Time {
	if o == nil {
		return time.Now()
	}
	return o.now()
}

// NewTrace starts a trace for one request and registers it in the ring.
// requested is the client-supplied X-Request-ID; when empty or invalid
// (see SanitizeRequestID) a sequential "req-%06d" ID is generated. The ID
// format is deterministic — no randomness, no clock bits — so a replayed
// request sequence yields the same IDs.
func (o *Observer) NewTrace(requested, route string) *Trace {
	if o == nil {
		return nil
	}
	id := SanitizeRequestID(requested)
	if id == "" {
		id = fmt.Sprintf("req-%06d", o.seq.Add(1))
	}
	t := &Trace{id: id, route: route, start: o.Now(), now: o.now}
	o.Ring.Add(t)
	return t
}

// maxRequestIDLen bounds accepted client request IDs.
const maxRequestIDLen = 64

// SanitizeRequestID validates a client-supplied request ID: at most 64
// characters drawn from [A-Za-z0-9._-]. Anything else returns "" (caller
// generates an ID instead) so header junk cannot pollute metrics labels
// or trace URLs.
func SanitizeRequestID(id string) string {
	if id == "" || len(id) > maxRequestIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return ""
		}
	}
	return id
}
