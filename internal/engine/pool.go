package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a job panic converted into an error by Map, so one
// panicking scenario fails its own row instead of killing the whole sweep
// process. Index is the job's input position; callers that know what the
// index means (internal/sim) wrap it with the scenario's name.
type PanicError struct {
	Index int
	Value any    // the recovered panic value
	Stack []byte // stack trace captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: job %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// safeCall runs one job with panic recovery.
func safeCall[T any](i int, fn func(i int) (T, error)) (res T, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Map runs fn for every index in [0, n) on a bounded worker pool and
// returns the results in input order — parallel execution is an
// implementation detail, never visible in the output. workers <= 0 uses
// GOMAXPROCS; one worker degenerates to a plain loop, so serial and
// parallel runs of deterministic jobs are byte-identical.
//
// Failure handling: a panicking job is converted into a *PanicError rather
// than crashing the pool. After any failure the pool cancels early —
// still-queued jobs with indices above the failing one are skipped — but
// every job at a lower index always runs, so the returned error is that of
// the lowest failing index regardless of worker count or scheduling. On
// error the results are discarded.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), workers, n, fn)
}

// MapCtx is Map with cancellation: once ctx is done, no further job starts
// — a job index whose turn comes after cancellation fails with the
// context's error instead of running — while jobs already in flight finish
// normally. The cancellation boundary is the job, so callers that abandon
// a sweep (server-side request timeouts, client disconnects) reclaim the
// pool after at most one in-flight job per worker rather than leaking a
// goroutine per remaining scenario.
//
// Error determinism is the same as Map's: the returned error is that of
// the lowest failing index, which after cancellation is the context error
// of the first job that observed it.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var err error
			if results[i], err = safeCall(i, fn); err != nil {
				return nil, err
			}
		}
		return results, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	// minFail is the lowest failing index seen so far; n means "none".
	// Workers skip queued jobs above it but still run every lower index, so
	// the winning error is deterministic.
	var minFail atomic.Int64
	minFail.Store(int64(n))
	fail := func(i int, err error) {
		errs[i] = err
		for {
			cur := minFail.Load()
			if int64(i) >= cur || minFail.CompareAndSwap(cur, int64(i)) {
				break
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if int64(i) > minFail.Load() {
					continue // cancelled: a lower index already failed
				}
				if err := ctx.Err(); err != nil {
					fail(i, err)
					continue
				}
				var err error
				results[i], err = safeCall(i, fn)
				if err == nil {
					continue
				}
				fail(i, err)
			}
		}()
	}
	wg.Wait()
	if mf := minFail.Load(); mf < int64(n) {
		return nil, errs[mf]
	}
	return results, nil
}
