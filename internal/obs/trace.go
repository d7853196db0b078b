package obs

import (
	"context"
	"sort"
	"sync"
	"time"

	"rdramstream/internal/telemetry"
)

// Stage names one phase of a request's life. Spans of different stages
// may overlap: the handler's stream span covers the whole write-out while
// individual scenarios move through queued/cache/simulate underneath it.
type Stage string

const (
	// StageQueued is submit-to-batch-pickup: time a scenario sat in the
	// service queue before the dispatcher coalesced it into a batch.
	StageQueued Stage = "queued"
	// StageBatchWait is batch-pickup-to-worker-start: time between the
	// dispatcher forming the batch and a pool worker taking the task.
	StageBatchWait Stage = "batch_wait"
	// StageCache is the result-cache path: key derivation, memory/disk
	// lookup, and singleflight coordination (for followers, the whole
	// wait on the leader's run).
	StageCache Stage = "cache"
	// StageSimulate is the engine execution of a cache miss.
	StageSimulate Stage = "simulate"
	// StageStream is the handler-side response phase: waiting on results
	// in input order and writing the JSON/NDJSON body.
	StageStream Stage = "stream"
)

// maxSpansPerTrace bounds one trace's span list; a 1000-scenario sweep
// records the first spans and counts the rest as dropped.
const maxSpansPerTrace = 256

// SpanRecord is one recorded stage span, in microseconds relative to the
// trace's start so records are compact and self-aligned.
//
// rdlint:wire — span records are served by GET /v1/requests/{id} and
// GET /debug/requests; their field names are part of the wire format.
type SpanRecord struct {
	Stage string `json:"stage"`
	// StartUS and EndUS are microseconds since the trace started.
	StartUS int64 `json:"start_us"`
	EndUS   int64 `json:"end_us"`
	// Note carries optional per-span detail, e.g. a scenario label.
	Note string `json:"note,omitempty"`
}

// TraceRecord is a point-in-time snapshot of one request trace — the
// body of GET /v1/requests/{id} and the per-line unit of /debug/requests.
//
// rdlint:wire — the trace wire format; field names are pinned.
type TraceRecord struct {
	ID    string `json:"id"`
	Route string `json:"route"`
	// StartUnixUS is the trace's wall-clock start in Unix microseconds.
	StartUnixUS int64 `json:"start_unix_us"`
	// DurationUS is the request's total duration (so far, when not Done).
	DurationUS int64 `json:"duration_us"`
	// Status is the HTTP status code (0 until the response is written).
	Status int    `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
	// Scenarios and CacheHits count the work the request carried.
	Scenarios int `json:"scenarios,omitempty"`
	CacheHits int `json:"cache_hits,omitempty"`
	// Done reports whether the request has finished.
	Done  bool         `json:"done"`
	Spans []SpanRecord `json:"spans"`
	// SpansDropped counts spans beyond the per-trace bound.
	SpansDropped int `json:"spans_dropped,omitempty"`
}

// Trace is one request's observability record. All methods are safe for
// concurrent use (handler and worker goroutines record into the same
// trace) and nil-receiver-safe, so call sites instrument unconditionally.
type Trace struct {
	id    string
	route string
	start time.Time
	now   func() time.Time

	mu        sync.Mutex
	end       time.Time    // guarded by mu; zero until Finish
	status    int          // guarded by mu
	errMsg    string       // guarded by mu
	scenarios int          // guarded by mu
	cacheHits int          // guarded by mu
	spans     []SpanRecord // guarded by mu
	dropped   int          // guarded by mu
}

// ID returns the trace's request ID.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Span records one [start, end) stage span. Out-of-range or unordered
// timestamps are clamped rather than rejected — a skewed span is still
// more useful than a silently missing one.
func (t *Trace) Span(stage Stage, start, end time.Time, note string) {
	if t == nil || start.IsZero() || end.IsZero() {
		return
	}
	if end.Before(start) {
		end = start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpansPerTrace {
		t.dropped++
		return
	}
	t.spans = append(t.spans, SpanRecord{
		Stage:   string(stage),
		StartUS: start.Sub(t.start).Microseconds(),
		EndUS:   end.Sub(t.start).Microseconds(),
		Note:    note,
	})
}

// AddScenarios counts n scenarios carried by this request.
func (t *Trace) AddScenarios(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.scenarios += n
	t.mu.Unlock()
}

// AddCacheHit counts one scenario answered from the result cache.
func (t *Trace) AddCacheHit() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cacheHits++
	t.mu.Unlock()
}

// SetStatus records the HTTP status code of the response.
func (t *Trace) SetStatus(code int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.status = code
	t.mu.Unlock()
}

// SetError records a request-level error message.
func (t *Trace) SetError(msg string) {
	if t == nil || msg == "" {
		return
	}
	t.mu.Lock()
	t.errMsg = msg
	t.mu.Unlock()
}

// Finish marks the trace complete. Idempotent; the first call wins.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	if t.end.IsZero() {
		t.end = now
	}
	t.mu.Unlock()
}

// Record snapshots the trace. Spans are copied; the record never aliases
// live state.
func (t *Trace) Record() TraceRecord {
	if t == nil {
		return TraceRecord{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end, done := t.end, true
	if end.IsZero() {
		end, done = t.now(), false
	}
	rec := TraceRecord{
		ID:           t.id,
		Route:        t.route,
		StartUnixUS:  t.start.UnixMicro(),
		DurationUS:   end.Sub(t.start).Microseconds(),
		Status:       t.status,
		Error:        t.errMsg,
		Scenarios:    t.scenarios,
		CacheHits:    t.cacheHits,
		Done:         done,
		Spans:        append([]SpanRecord(nil), t.spans...),
		SpansDropped: t.dropped,
	}
	return rec
}

// Ring is a fixed-capacity ring of recent traces, indexed by request ID.
// Traces enter at creation (in-flight requests are visible) and the
// oldest is evicted past capacity. Safe for concurrent use.
type Ring struct {
	mu    sync.Mutex
	slots []*Trace          // guarded by mu; circular buffer; slots[next] is the oldest
	next  int               // guarded by mu
	byID  map[string]*Trace // guarded by mu
}

// NewRing builds a ring holding up to capacity traces (min 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{
		slots: make([]*Trace, 0, capacity),
		byID:  make(map[string]*Trace, capacity),
	}
}

// Add inserts a trace, evicting the oldest past capacity. A re-used
// request ID replaces the previous trace in the index (the latest wins)
// while the older trace ages out of the ring normally.
func (r *Ring) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.slots) < cap(r.slots) {
		r.slots = append(r.slots, t)
	} else {
		old := r.slots[r.next]
		if r.byID[old.id] == old {
			delete(r.byID, old.id)
		}
		r.slots[r.next] = t
		r.next = (r.next + 1) % cap(r.slots)
	}
	r.byID[t.id] = t
}

// Get looks a trace up by request ID.
func (r *Ring) Get(id string) (*Trace, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.byID[id]
	return t, ok
}

// Recent snapshots the ring's traces, oldest first.
func (r *Ring) Recent() []TraceRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	traces := make([]*Trace, 0, len(r.slots))
	for i := 0; i < len(r.slots); i++ {
		traces = append(traces, r.slots[(r.next+i)%len(r.slots)])
	}
	r.mu.Unlock()
	out := make([]TraceRecord, len(traces))
	for i, t := range traces {
		out[i] = t.Record()
	}
	return out
}

// Events converts trace records into telemetry events — one track per
// trace, one span event per stage span plus a whole-request span — on a
// shared timebase (microseconds since the earliest trace start), so the
// existing telemetry exporters (WriteJSONL, WriteChromeTrace) render the
// request ring exactly like they render a simulation: in Perfetto each
// request is a named thread and its stages are slices.
func Events(recs []TraceRecord) []telemetry.Event {
	if len(recs) == 0 {
		return nil
	}
	epoch := recs[0].StartUnixUS
	for _, r := range recs {
		if r.StartUnixUS < epoch {
			epoch = r.StartUnixUS
		}
	}
	events := make([]telemetry.Event, 0, len(recs)*2)
	for _, r := range recs {
		base := r.StartUnixUS - epoch
		track := r.ID + " " + r.Route
		events = append(events, telemetry.Event{
			Track: track, Name: "request", Start: base, End: base + r.DurationUS,
		})
		for _, sp := range r.Spans {
			name := sp.Stage
			if sp.Note != "" {
				name += " " + sp.Note
			}
			events = append(events, telemetry.Event{
				Track: track, Name: name, Start: base + sp.StartUS, End: base + sp.EndUS,
			})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Start < events[j].Start })
	return events
}

// ctxKey is the context key carrying a *Trace down the request path.
type ctxKey struct{}

// NewContext attaches a trace to a context; the service layer's job
// context carries it from the HTTP handler down to the worker running
// each scenario.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext extracts the request trace, or nil when the context
// carries none (direct service use, tests). Combined with nil-safe Trace
// methods, call sites never branch.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
