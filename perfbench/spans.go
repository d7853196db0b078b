package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Op groups the spans of one operation;
// Parent is the span that caused this one (0 for an operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	next   atomic.Int64

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	t *tracer
	s span
}

// begin starts a span. A zero op starts a new operation rooted here.
func (t *tracer) begin(name string, op, parent int64) open {
	if t == nil {
		return open{}
	}
	id := t.next.Add(1)
	if op == 0 {
		op = id
	}
	return open{t: t, s: span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.origin))}}
}

// child starts a span caused by o, in o's operation.
func (o open) child(name string) open { return o.t.begin(name, o.s.Op, o.s.ID) }

func (o open) end() {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.origin))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover. Children of one span never
// overlap each other; a child is clipped to its parent's interval, since a
// server-side span may be recorded a moment after the client saw the
// reply.
func selfTimes(spans []span) (self map[string]int64, ops int) {
	byID := make(map[int64]span, len(spans))
	covered := make(map[int64]int64, len(spans))
	opIDs := make(map[int64]bool)
	for _, s := range spans {
		byID[s.ID] = s
		opIDs[s.Op] = true
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[p.ID] += hi - lo
		}
	}
	self = make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += s.End - s.Start - covered[s.ID]
	}
	return self, len(opIDs)
}

// ledger reconciles the traced layers with the untraced per-operation
// time: the layers' self times per operation should add up to it, and
// what they do not explain is the remainder.
type ledger struct {
	OpUS        float64            `json:"op_us"`     // untraced time per operation
	LayersUS    float64            `json:"layers_us"` // sum of layer self times per traced operation
	RemainderUS float64            `json:"remainder_us"`
	SelfUS      map[string]float64 `json:"self_us"` // per layer, per operation
}

// reconcile builds the ledger from the traced spans. Root spans (named
// rootSpan) are the benchmark's own bookkeeping around an operation, not
// a layer, so their self time is not counted.
func reconcile(spans []span, opUS float64) (ledger, error) {
	self, ops := selfTimes(spans)
	if ops == 0 {
		return ledger{}, fmt.Errorf("no traced operations")
	}
	l := ledger{OpUS: opUS, SelfUS: make(map[string]float64)}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if n == rootSpan {
			continue
		}
		us := float64(self[n]) / 1e3 / float64(ops)
		l.SelfUS[n] = us
		l.LayersUS += us
	}
	l.RemainderUS = l.OpUS - l.LayersUS
	return l, nil
}

// rootSpan names the span around one whole operation.
const rootSpan = "op"
