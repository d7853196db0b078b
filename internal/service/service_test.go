package service

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/sim"
	"rdramstream/internal/stream"
)

func scenario(n int) sim.Scenario {
	return sim.Scenario{
		KernelName: "daxpy", N: n, Scheme: addrmap.PI, Mode: sim.SMC,
		FIFODepth: 32, Placement: stream.Staggered,
	}
}

func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s
}

func TestSubmitOneMatchesDirectRun(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	sc := scenario(256)
	direct, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.SubmitOne(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.WaitResult(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != "" {
		t.Fatalf("scenario failed: %s", res.Error)
	}
	if res.Cached {
		t.Error("first submission reported a cache hit")
	}
	if !reflect.DeepEqual(*res.Outcome, direct) {
		t.Errorf("service outcome differs from direct sim.Run:\n  got  %+v\n  want %+v", *res.Outcome, direct)
	}

	// Resubmission is a cache hit with the identical outcome.
	job2, err := s.SubmitOne(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := job2.WaitResult(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Error("resubmission was not served from cache")
	}
	if !reflect.DeepEqual(*res2.Outcome, direct) {
		t.Error("cached outcome differs from direct sim.Run")
	}
}

// TestRunTaskPanicLandsInScenarioResult pins the batch-isolation
// guarantee: a panic anywhere in the task path becomes that scenario's
// error instead of unwinding into engine.MapCtx, where it would fail the
// whole coalesced batch (which can carry other jobs' scenarios).
func TestRunTaskPanicLandsInScenarioResult(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	job := &Job{
		id: "job-panic", ctx: context.Background(), state: StateQueued,
		results: make([]*ScenarioResult, 1),
		ready:   []chan struct{}{make(chan struct{})},
		done:    make(chan struct{}),
	}
	// A nil cache makes the first dereference inside runTask panic —
	// standing in for any unexpected panic outside the cache's runner.
	s.cache = nil
	s.runTask(&task{job: job, i: 0, sc: scenario(64)})
	res, err := job.WaitResult(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Error == "" || !strings.Contains(res.Error, "panicked") {
		t.Fatalf("result error = %q, want a recorded panic", res.Error)
	}
	if job.Status().State != StateDone {
		t.Error("job did not reach a terminal state after the panic")
	}
}

func TestSweepResultsInInputOrder(t *testing.T) {
	s := newService(t, Config{Workers: 4, BatchSize: 3})
	var scs []sim.Scenario
	lengths := []int{64, 128, 256, 64, 512} // index 3 repeats index 0: in-sweep cache hit
	for _, n := range lengths {
		scs = append(scs, scenario(n))
	}
	job, err := s.Submit(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := job.Status()
	if st.State != StateDone || st.Completed != len(scs) || st.Failed != 0 {
		t.Fatalf("status = %+v", st)
	}
	for i, res := range st.Results {
		if res == nil || res.Index != i {
			t.Fatalf("result %d missing or misindexed: %+v", i, res)
		}
		direct, err := sim.Run(scs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*res.Outcome, direct) {
			t.Errorf("scenario %d (n=%d): outcome differs from direct run", i, lengths[i])
		}
	}
	if st.CacheHits == 0 {
		t.Error("duplicate scenario in the sweep was not served from cache")
	}
}

func TestSubmitValidatesUpFront(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	bad := scenario(256)
	bad.KernelName = "no-such-kernel"
	if _, err := s.Submit(context.Background(), []sim.Scenario{scenario(64), bad}); err == nil {
		t.Fatal("malformed sweep was accepted")
	}
	if _, err := s.Submit(context.Background(), nil); !errors.Is(err, ErrEmptyJob) {
		t.Fatalf("empty sweep: got %v, want ErrEmptyJob", err)
	}
}

func TestQueueFullIsAllOrNothing(t *testing.T) {
	s := newService(t, Config{Workers: 1, QueueDepth: 3})
	// Block the dispatcher with a job whose context gate we control via a
	// long scenario; simpler: fill the queue faster than one worker
	// drains it and check overflow rejects the whole batch.
	scs := []sim.Scenario{scenario(64), scenario(128), scenario(256), scenario(512)}
	if _, err := s.Submit(context.Background(), scs); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	if m := s.Metrics(); m.Queue.Depth != 0 {
		t.Errorf("rejected submission left %d tasks queued", m.Queue.Depth)
	}
}

func TestJobContextCancelsQueuedWork(t *testing.T) {
	s := newService(t, Config{Workers: 1, BatchSize: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before anything runs
	job, err := s.Submit(ctx, []sim.Scenario{scenario(64), scenario(128)})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := job.Wait(wctx); err != nil {
		t.Fatal(err)
	}
	st := job.Status()
	if st.Failed != 2 {
		t.Fatalf("status = %+v, want both scenarios failed with the cancellation cause", st)
	}
}

func TestCloseDrainsQueuedWork(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit(context.Background(), []sim.Scenario{scenario(64), scenario(128)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := job.Status()
	if st.State != StateDone || st.Failed != 0 {
		t.Fatalf("drain left job in %+v", st)
	}
	if _, err := s.SubmitOne(context.Background(), scenario(64)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit: got %v, want ErrClosed", err)
	}
}

func TestMetricsAggregateStalls(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	job, err := s.SubmitOne(context.Background(), scenario(256))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Version == "" {
		t.Error("metrics carry no version stamp")
	}
	if m.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 miss", m.Cache)
	}
	if m.Workers.TasksRun != 1 {
		t.Errorf("worker stats = %+v, want 1 task run", m.Workers)
	}
	// The aggregate is the executed run's own Device.Stalls, which tile
	// its idle DATA-bus time.
	out := job.Status().Results[0].Outcome
	if m.Stalls != out.Device.Stalls {
		t.Errorf("stall aggregates %v, want the run's Device.Stalls %v", m.Stalls, out.Device.Stalls)
	}
	var total int64
	for _, v := range m.Stalls {
		total += v
	}
	if want := out.Cycles - out.Device.DataBusBusy; total != want || total <= 0 {
		t.Errorf("stall aggregate total = %d, want Cycles-DataBusBusy = %d", total, want)
	}

	// A cache hit must not add to the stall aggregates.
	job2, _ := s.SubmitOne(context.Background(), scenario(256))
	job2.Wait(context.Background())
	m2 := s.Metrics()
	var total2 int64
	for _, v := range m2.Stalls {
		total2 += v
	}
	if total2 != total {
		t.Errorf("cache hit changed stall aggregates: %d -> %d", total, total2)
	}
}

// TestEvictJobsOldestFinishedFirst pins the retention order: beyond
// JobRetention the oldest finished jobs go first, finished jobs behind
// an unfinished oldest one are found and dropped, and an unfinished job
// is never dropped, even when that leaves the service over its bound.
func TestEvictJobsOldestFinishedFirst(t *testing.T) {
	s := &Service{jobs: map[string]*Job{}, jobRetention: 2}
	jobs := map[string]*Job{}
	submit := func(id string, finished bool) {
		j := &Job{id: id, done: make(chan struct{})}
		if finished {
			close(j.done)
		}
		jobs[id] = j
		s.mu.Lock()
		s.jobs[id] = j
		s.jobOrder = append(s.jobOrder, j)
		s.evictJobsLocked()
		s.mu.Unlock()
	}
	retained := func() string {
		var ids []string
		for _, j := range s.jobOrder {
			ids = append(ids, j.id)
			if _, err := s.Job(j.id); err != nil {
				t.Errorf("job %s is in the retention order but not queryable: %v", j.id, err)
			}
		}
		if len(s.jobs) != len(ids) {
			t.Errorf("%d jobs queryable, %d in the retention order", len(s.jobs), len(ids))
		}
		return strings.Join(ids, " ")
	}
	for _, step := range []struct {
		id       string
		finished bool
		finish   string // a job that finishes before this submission
		want     string
	}{
		{id: "a", finished: true, want: "a"},
		{id: "b", finished: true, want: "a b"},
		{id: "c", want: "b c"},                              // the oldest finished job goes first
		{id: "d", finished: true, want: "c d"},              // b, finished, goes before unfinished c
		{id: "e", finished: true, want: "c e"},              // c is unfinished: d, behind it, goes
		{id: "f", want: "c f"},                              // e goes; both survivors are unfinished
		{id: "g", want: "c f g"},                            // nothing finished: over the bound
		{id: "h", finish: "c", want: "f g h"},               // c, finished, goes from the front
		{id: "i", finish: "g", finished: true, want: "f h"}, // two over: g and i go
	} {
		if step.finish != "" {
			close(jobs[step.finish].done)
		}
		submit(step.id, step.finished)
		if got := retained(); got != step.want {
			t.Errorf("after submitting %s: retained %q, want %q", step.id, got, step.want)
		}
	}
	if _, err := s.Job("a"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("evicted job a: err %v, want ErrUnknownJob", err)
	}
}
