package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"rdramstream/internal/telemetry"
)

// ExpositionContentType is the Content-Type of the Prometheus text
// exposition format served at /metrics.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one metric label pair. Series are identified by their full
// sorted label set.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// DefaultLatencyBoundsUS are the fixed histogram bounds for wall-clock
// request/stage latencies, in microseconds: 100µs to 10s, roughly
// logarithmic. Fixed bounds keep exposition size constant and make
// snapshots from different servers mergeable.
func DefaultLatencyBoundsUS() []int64 {
	return []int64{
		100, 250, 500,
		1_000, 2_500, 5_000,
		10_000, 25_000, 50_000,
		100_000, 250_000, 500_000,
		1_000_000, 2_500_000, 5_000_000, 10_000_000,
	}
}

// metric families render in one of three exposition types.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Counter is a monotonic per-series counter handle.
type Counter struct {
	mu sync.Mutex
	v  float64 // guarded by mu
}

// Add increments the counter; negative deltas are ignored (counters are
// monotonic by contract).
func (c *Counter) Add(n float64) {
	if c == nil || n < 0 {
		return
	}
	c.mu.Lock()
	c.v += n
	c.mu.Unlock()
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// set overwrites the value — the snapshot-publishing path for counters
// whose source of truth lives elsewhere (cache stats, stall aggregates).
func (c *Counter) set(v float64) {
	c.mu.Lock()
	c.v = v
	c.mu.Unlock()
}

// LatencyHistogram is a concurrency-safe fixed-bucket histogram series,
// wrapping telemetry.Histogram (which is single-goroutine by design, like
// the simulator that feeds it) with a mutex for the multi-goroutine
// serving path.
type LatencyHistogram struct {
	mu sync.Mutex
	h  *telemetry.Histogram // guarded by mu
}

// Observe records one sample (microseconds, by convention of the _us
// metric names).
func (l *LatencyHistogram) Observe(v int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.h.Observe(v)
	l.mu.Unlock()
}

// snapshot returns the bucket counts, total count, and sum.
func (l *LatencyHistogram) snapshot() (buckets []telemetry.HistogramBucket, n, sum int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h.Buckets(), l.h.N(), l.h.Sum()
}

// maxLabels bounds the label set of one series.
const maxLabels = 4

// seriesKey identifies a series within its family: the label set sorted
// by key, in a fixed-size array. It is comparable, so a lookup of an
// existing series neither renders label text nor allocates.
type seriesKey struct {
	n      int
	labels [maxLabels]Label
}

// keyOf sorts a label set into its series key. More than maxLabels
// labels is a programming error and panics.
func keyOf(labels []Label) seriesKey {
	if len(labels) > maxLabels {
		panic(fmt.Sprintf("obs: %d labels on one series, at most %d", len(labels), maxLabels))
	}
	k := seriesKey{n: len(labels)}
	copy(k.labels[:], labels)
	for i := 1; i < k.n; i++ {
		for j := i; j > 0 && k.labels[j].Key < k.labels[j-1].Key; j-- {
			k.labels[j], k.labels[j-1] = k.labels[j-1], k.labels[j]
		}
	}
	return k
}

// series is one labeled instance within a family.
type series struct {
	labels string // rendered {k="v",...} suffix, "" for unlabeled
	c      *Counter
	hist   *LatencyHistogram
	bounds []int64
}

// family is one metric name: HELP, TYPE, and its series.
type family struct {
	name, help, typ string
	series          map[seriesKey]*series
}

// Registry is a set of metric families rendered in Prometheus text
// exposition format. Registration is idempotent — Counter/Histogram
// return the existing handle for a (name, labels) pair, without
// allocating — so hot paths may re-register per request; re-registering
// a name with a different exposition type panics (a programming error,
// caught in tests).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family // guarded by mu
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// seriesFor returns (registering on first use) the series for a name
// and label set; bounds apply to a histogram's first registration. The
// label text is rendered only then.
func (r *Registry) seriesFor(name, help, typ string, bounds []int64, labels []Label) *series {
	key := keyOf(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[seriesKey]*series)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: renderLabels(key.labels[:key.n])}
		if typ == typeHistogram {
			s.hist = &LatencyHistogram{h: telemetry.MustHistogram(bounds...)}
			s.bounds = bounds
		} else {
			s.c = &Counter{}
		}
		f.series[key] = s
	}
	return s
}

// Counter returns (registering on first use) the counter series for the
// given name and label set.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.seriesFor(name, help, typeCounter, nil, labels).c
}

// SetGauge sets a gauge series to v, registering it on first use. Gauges
// here are snapshot-published: the caller owns the source of truth and
// pushes the current value at collection time.
func (r *Registry) SetGauge(name, help string, v float64, labels ...Label) {
	if r == nil {
		return
	}
	r.seriesFor(name, help, typeGauge, nil, labels).c.set(v)
}

// SetCounter sets a counter series to an externally accumulated value —
// for monotonic totals whose source of truth is another subsystem's
// consistent snapshot (cache hits, tasks run, stall cycles).
func (r *Registry) SetCounter(name, help string, v float64, labels ...Label) {
	if r == nil {
		return
	}
	r.Counter(name, help, labels...).set(v)
}

// Histogram returns (registering on first use) the histogram series for
// the given name, bounds, and label set. Bounds must be ascending and are
// kept, not copied; all series of one family should share them (the
// first registration wins).
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *LatencyHistogram {
	if r == nil {
		return nil
	}
	return r.seriesFor(name, help, typeHistogram, bounds, labels).hist
}

// WritePrometheus renders the registry in text exposition format:
// families sorted by name, series sorted by label set, HELP and TYPE
// before samples, histogram buckets cumulative with a trailing +Inf.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		r.mu.Lock()
		srs := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			srs = append(srs, s)
		}
		r.mu.Unlock()
		sort.Slice(srs, func(i, j int) bool { return srs[i].labels < srs[j].labels })
		for _, s := range srs {
			switch f.typ {
			case typeHistogram:
				writeHistogramSeries(bw, f.name, s)
			default:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, s.labels, formatValue(s.c.Value()))
			}
		}
	}
	return bw.Flush()
}

// writeHistogramSeries renders one histogram series: cumulative
// name_bucket lines per bound, the +Inf bucket, then name_sum and
// name_count.
func writeHistogramSeries(w io.Writer, name string, s *series) {
	buckets, n, sum := s.hist.snapshot()
	var cum int64
	for i, b := range buckets {
		if b.Overflow {
			break // the overflow bin is the +Inf bucket, rendered below
		}
		cum += b.Count
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(s.labels, strconv.FormatInt(s.bounds[i], 10)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(s.labels, "+Inf"), n)
	fmt.Fprintf(w, "%s_sum%s %d\n", name, s.labels, sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, n)
}

// withLE merges an le label into a rendered label set.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return strings.TrimSuffix(labels, "}") + `,le="` + le + `"}`
}

// renderLabels renders a label set, already sorted by key, as the
// canonical {k="v",...} suffix with label values escaped.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline (quotes are
// legal in help text).
func escapeHelp(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatValue renders a sample value: integers without exponent, other
// floats in Go's shortest round-trip form (both valid exposition
// floats).
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
