package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs (0 <= q <= 1), interpolating
// linearly between the two nearest ranks, so that the median of an even
// count is the mean of the middle two. kernel-grid's scenario costs fall in
// two groups of 32 (N 1024 and N 16384); a nearest-rank median would be the
// costliest short scenario alone. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	h := q * float64(len(xs)-1)
	i := min(int(h), len(xs)-1)
	if i+1 == len(xs) {
		return xs[i]
	}
	return xs[i] + (h-float64(i))*(xs[i+1]-xs[i])
}

// tailQuantile is the highest quantile, at most want, that leaves at least
// ten samples beyond it; below twenty samples it falls back to the median.
func tailQuantile(n int, want float64) float64 {
	if n < 20 {
		return 0.5
	}
	q := 1 - 10/float64(n)
	if q > want {
		q = want
	}
	return q
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timePerCall runs fn until at least minDur has passed and at least
// minIter calls were made, and returns the median duration of one call in
// nanoseconds. fn returns the duration of the part it wants timed, so it
// can keep per-call set-up out of the measurement.
func timePerCall(minDur time.Duration, minIter int, fn func() time.Duration) float64 {
	var ds []float64
	start := time.Now()
	for len(ds) < minIter || time.Since(start) < minDur {
		ds = append(ds, float64(fn()))
	}
	return median(ds)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// memSampler records, at a fixed interval until stopped, the memory the Go
// runtime holds from the operating system: everything it mapped minus the
// heap it released.
type memSampler struct {
	stop, done chan struct{}
	mib        []float64 // written by the sampling goroutine until done closes
}

func startMemSampler(every time.Duration) *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(samples)
			m.mib = append(m.mib, float64(samples[0].Value.Uint64()-samples[1].Value.Uint64())/(1<<20))
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// mean stops the sampler, waits for it, and returns the mean sample. Which
// scenarios the collector happens to land in moves the heap goal between
// two levels on kernel-grid, so that the median sample of a run jumps
// between them; the mean moves by their share of the window.
func (m *memSampler) mean() float64 {
	close(m.stop)
	<-m.done
	sum := 0.0
	for _, x := range m.mib {
		sum += x
	}
	return sum / float64(len(m.mib))
}
