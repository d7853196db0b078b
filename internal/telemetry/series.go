package telemetry

import "fmt"

// Series is a fixed-window gauge over simulation cycles: bucket i covers
// cycles [i*Window, (i+1)*Window) and keeps the largest sample observed
// in it, so a short spike (a FIFO filling for a few cycles) is still
// visible after windowing. Buckets grow on demand, so a series costs
// nothing for the part of a run it never observes.
type Series struct {
	window  int64
	buckets []float64
}

// NewMaxSeries returns a series with the given window (cycles per
// bucket; values below 1 are clamped to 1).
func NewMaxSeries(window int64) *Series {
	return &Series{window: max(window, 1)}
}

// Values returns the bucket values; the slice aliases internal storage.
func (s *Series) Values() []float64 {
	if s == nil {
		return nil
	}
	return s.buckets
}

// Observe records a sample at cycle at; the bucket keeps the largest.
// Samples at negative cycles are dropped.
func (s *Series) Observe(at int64, v float64) {
	if s == nil || at < 0 {
		return
	}
	i := int(at / s.window)
	for len(s.buckets) <= i {
		s.buckets = append(s.buckets, 0)
	}
	s.buckets[i] = max(s.buckets[i], v)
}

// Histogram is a fixed-bucket histogram of int64 samples (latencies in
// cycles). Bounds are inclusive upper bounds in ascending order; samples
// above the last bound land in an overflow bucket.
type Histogram struct {
	bounds []int64
	counts []int64
	n, sum int64
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
