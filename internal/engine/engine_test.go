package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
)

func TestFinalize(t *testing.T) {
	r := Result{Cycles: 2048, UsefulWords: 1024, TransferredWords: 2048}
	r.Finalize(1)
	if r.PercentPeak != 50 {
		t.Errorf("PercentPeak = %v, want 50", r.PercentPeak)
	}
	// Half the transferred words were useful, so the pattern could at best
	// double the useful rate: attainable rescales by 1/frac.
	if r.PercentAttainable != 100 {
		t.Errorf("PercentAttainable = %v, want 100", r.PercentAttainable)
	}
	// 1024 words × 8 bytes in 2048 cycles × 2.5 ns = 1600 MB/s.
	if r.EffectiveMBps != 1600 {
		t.Errorf("EffectiveMBps = %v, want 1600", r.EffectiveMBps)
	}

	var zero Result
	zero.Finalize(1)
	if zero.PercentPeak != 0 || zero.EffectiveMBps != 0 {
		t.Errorf("zero-cycle Finalize = %+v, want zeros", zero)
	}
}

func TestPercentOfPeak(t *testing.T) {
	if got := PercentOfPeak(1024, 1024, 1); got != 100 {
		t.Errorf("PercentOfPeak = %v, want 100", got)
	}
	if got := PercentOfPeak(10, 0, 1); got != 0 {
		t.Errorf("PercentOfPeak with zero cycles = %v, want 0", got)
	}
}

func TestWindow(t *testing.T) {
	w := NewWindow(2)
	if at := w.Admit(5); at != 5 {
		t.Errorf("empty window Admit(5) = %d, want 5", at)
	}
	w.Complete(10)
	w.Complete(20)
	// Two outstanding: the next admission waits for the transaction two
	// back (completion 10).
	if at := w.Admit(0); at != 10 {
		t.Errorf("full window Admit(0) = %d, want 10", at)
	}
	if at := w.Admit(15); at != 15 {
		t.Errorf("Admit(15) = %d, want 15 (already past completion 10)", at)
	}
	w.Complete(30)
	if at := w.Admit(0); at != 20 {
		t.Errorf("Admit(0) after third completion = %d, want 20", at)
	}

	// Random Admit/Complete sequences for limits 1–8, spanning many wraps
	// of the ring, against the plain modulo ring: transaction n waits for
	// the completion of transaction n−limit, kept in slot n % limit.
	t.Run("modulo reference", func(t *testing.T) {
		r := rand.New(rand.NewSource(9))
		for limit := 1; limit <= 8; limit++ {
			w := NewWindow(limit)
			done := make([]int64, limit)
			now := int64(0)
			for n := 0; n < 20*limit+50; n++ {
				at := now + r.Int63n(40) - 10
				want := at
				if n >= limit {
					want = max(at, done[n%limit])
				}
				if got := w.Admit(at); got != want {
					t.Fatalf("limit %d, transaction %d: Admit(%d) = %d, want %d", limit, n, at, got, want)
				}
				// Completion times wander, not always increasing, as packet
				// times do under retries and reordering.
				c := want + r.Int63n(30)
				done[n%limit] = c
				w.Complete(c)
				now = max(now, want)
			}
		}
	})

	defer func() {
		if recover() == nil {
			t.Error("NewWindow(0) did not panic")
		}
	}()
	NewWindow(0)
}

type fakeController struct{ name string }

func (f fakeController) Name() string { return f.name }
func (f fakeController) Run(*rdram.Device, *stream.Kernel, Options) (Result, error) {
	return Result{}, nil
}

func TestRegistry(t *testing.T) {
	Register(fakeController{name: "test-fake"})
	t.Cleanup(func() { unregister("test-fake") })
	if _, ok := Lookup("test-fake"); !ok {
		t.Error("registered controller not found")
	}
	if _, ok := Lookup("test-missing"); ok {
		t.Error("Lookup invented a controller")
	}
	found := false
	for _, n := range Names() {
		if n == "test-fake" {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() = %v, missing test-fake", Names())
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(fakeController{name: "test-fake"})
}

func TestMapOrderAndConcurrency(t *testing.T) {
	for _, workers := range []int{1, 4, 0} {
		var running, peak atomic.Int64
		got, err := Map(workers, 50, func(i int) (int, error) {
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			defer running.Add(-1)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
		if workers == 1 && peak.Load() > 1 {
			t.Errorf("workers=1 ran %d jobs concurrently", peak.Load())
		}
	}
}

func TestMapFirstError(t *testing.T) {
	wantErr := errors.New("job 7")
	_, err := Map(4, 20, func(i int) (int, error) {
		if i >= 7 {
			return 0, fmt.Errorf("job %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != wantErr.Error() {
		t.Errorf("err = %v, want %v (lowest failing index)", err, wantErr)
	}
	if got, err := Map(3, 0, func(i int) (int, error) { return i, nil }); got != nil || err != nil {
		t.Errorf("empty Map = %v, %v", got, err)
	}
}
