package telemetry

import (
	"fmt"
	"strings"
)

// Series is a fixed-window time series over simulation cycles: bucket i
// covers cycles [i*Window, (i+1)*Window). Buckets grow on demand, so a
// series costs nothing for the part of a run it never observes. A Series
// is either summing (Add/AddSpan accumulate) or max-tracking (Observe
// keeps the largest sample per bucket) — gauges such as FIFO depth use the
// latter so a short spike is still visible after windowing.
type Series struct {
	window  int64
	max     bool
	buckets []float64
}

// NewSeries returns a summing series with the given window (cycles per
// bucket; values below 1 are clamped to 1).
func NewSeries(window int64) *Series {
	if window < 1 {
		window = 1
	}
	return &Series{window: window}
}

// NewMaxSeries returns a max-tracking series (per-bucket maximum).
func NewMaxSeries(window int64) *Series {
	s := NewSeries(window)
	s.max = true
	return s
}

// Len returns the number of buckets observed so far.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.buckets)
}

// Values returns the bucket values; the slice aliases internal storage.
func (s *Series) Values() []float64 {
	if s == nil {
		return nil
	}
	return s.buckets
}

func (s *Series) ensure(i int) {
	for len(s.buckets) <= i {
		s.buckets = append(s.buckets, 0)
	}
}

// Add accumulates v into the bucket containing cycle at.
func (s *Series) Add(at int64, v float64) {
	if s == nil || at < 0 {
		return
	}
	i := int(at / s.window)
	s.ensure(i)
	s.buckets[i] += v
}

// Observe records a gauge sample at cycle at; on a max series the bucket
// keeps the largest sample, on a summing series it accumulates.
func (s *Series) Observe(at int64, v float64) {
	if s == nil || at < 0 {
		return
	}
	i := int(at / s.window)
	s.ensure(i)
	if s.max {
		if v > s.buckets[i] {
			s.buckets[i] = v
		}
	} else {
		s.buckets[i] += v
	}
}

// AddSpan distributes a [start, end) occupancy span across buckets,
// crediting perCycle units for every cycle of overlap — the primitive
// behind per-window bus-occupancy accounting.
func (s *Series) AddSpan(start, end int64, perCycle float64) {
	if s == nil || end <= start {
		return
	}
	if start < 0 {
		start = 0
	}
	first := start / s.window
	last := (end - 1) / s.window
	s.ensure(int(last))
	for b := first; b <= last; b++ {
		lo, hi := b*s.window, (b+1)*s.window
		if start > lo {
			lo = start
		}
		if end < hi {
			hi = end
		}
		s.buckets[b] += float64(hi-lo) * perCycle
	}
}

// Histogram is a fixed-bucket histogram of int64 samples (latencies in
// cycles). Bounds are inclusive upper bounds in ascending order; samples
// above the last bound land in an overflow bucket.
type Histogram struct {
	bounds []int64
	counts []int64
	n, sum int64
	min    int64
	maxV   int64
}

// NewHistogram builds a histogram with the given ascending upper bounds. A
// non-ascending bound list is a configuration error, reported at
// construction; every Histogram method is nil-receiver-safe, so callers that
// ignore the error still degrade to a no-op histogram rather than crashing.
func NewHistogram(bounds ...int64) (*Histogram, error) {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("telemetry: histogram bounds not ascending: %v", bounds)
		}
	}
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}, nil
}

// MustHistogram is NewHistogram for bound lists known statically; it panics
// on error.
func MustHistogram(bounds ...int64) *Histogram {
	h, err := NewHistogram(bounds...)
	if err != nil {
		panic(err)
	}
	return h
}

// DefaultLatencyBounds covers the Direct RDRAM latency range: a page hit
// costs ~t_CAC+1, a miss ~t_RAC, a conflict adds t_RP, and queueing can
// stretch far beyond.
func DefaultLatencyBounds() []int64 {
	return []int64{12, 16, 20, 24, 32, 48, 64, 96, 128, 192, 256, 512}
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.maxV {
		h.maxV = v
	}
	h.n++
	h.sum += v
}

// N returns the sample count.
func (h *Histogram) N() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the total of all samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Min and Max return the extreme samples (0 with no samples).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest sample observed.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.maxV
}

// HistogramBucket is one exported histogram bin; Le is the inclusive upper
// bound, with Overflow set on the final unbounded bin.
type HistogramBucket struct {
	Le       int64 `json:"le"`
	Count    int64 `json:"count"`
	Overflow bool  `json:"overflow,omitempty"`
}

// Buckets returns the bins in bound order.
func (h *Histogram) Buckets() []HistogramBucket {
	if h == nil {
		return nil
	}
	out := make([]HistogramBucket, len(h.counts))
	for i, c := range h.counts {
		b := HistogramBucket{Count: c}
		if i < len(h.bounds) {
			b.Le = h.bounds[i]
		} else {
			b.Le = h.maxV
			b.Overflow = true
		}
		out[i] = b
	}
	return out
}

func (h *Histogram) String() string {
	if h == nil || h.n == 0 {
		return "histogram(empty)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f min=%d max=%d |", h.n, h.Mean(), h.min, h.maxV)
	for _, bk := range h.Buckets() {
		if bk.Count == 0 {
			continue
		}
		if bk.Overflow {
			fmt.Fprintf(&b, " >:%d", bk.Count)
		} else {
			fmt.Fprintf(&b, " ≤%d:%d", bk.Le, bk.Count)
		}
	}
	return b.String()
}
