package service

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"rdramstream/internal/resultcache"
	"rdramstream/internal/sim"
)

// runOne submits one scenario and waits for its result.
func runOne(t *testing.T, s *Service, sc sim.Scenario) ScenarioResult {
	t.Helper()
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
	return res
}

// A memory hit is answered inside Submit: it needs no queue slot and no
// worker, so it succeeds while the only worker is stuck on a miss and the
// queue is full, and its job is already done when Submit returns. The
// worker is held deterministically by a peer tier that blocks on the
// blocker scenario's key until the test releases it.
func TestMemoryHitAnsweredAtSubmit(t *testing.T) {
	blocker := scenario(32)
	blockKey, err := resultcache.Key(blocker)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	cache, err := resultcache.New(resultcache.Options{Peer: func(ctx context.Context, key string) (sim.Outcome, bool) {
		if key == blockKey {
			close(entered)
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return sim.Outcome{}, false
	}})
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, Config{Workers: 1, QueueDepth: 1, BatchSize: 1, Cache: cache})

	warm := scenario(64)
	want := runOne(t, s, warm)

	if _, err := s.SubmitOne(context.Background(), blocker); err != nil {
		t.Fatal(err)
	}
	<-entered // the only worker is now inside the blocker's lookup
	if _, err := s.SubmitOne(context.Background(), scenario(128)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitOne(context.Background(), scenario(256)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("a second queued miss: got %v, want ErrQueueFull", err)
	}

	before := s.Metrics()
	job, err := s.SubmitOne(context.Background(), warm)
	if err != nil {
		t.Fatalf("hit behind a full queue: %v", err)
	}
	select {
	case <-job.Done():
	default:
		t.Fatal("the hit's job was not done when Submit returned")
	}
	st := job.Status()
	if st.State != StateDone || st.CacheHits != 1 || st.Failed != 0 {
		t.Fatalf("hit job status = %+v", st)
	}
	if res := st.Results[0]; !res.Cached || !reflect.DeepEqual(*res.Outcome, *want.Outcome) {
		t.Errorf("hit result = %+v, want the warm outcome, cached", res)
	}
	after := s.Metrics()
	if after.Cache.Hits != before.Cache.Hits+1 || after.Cache.Misses != before.Cache.Misses {
		t.Errorf("cache counters %+v -> %+v, want exactly one more hit", before.Cache, after.Cache)
	}
	if after.Workers.TasksRun != before.Workers.TasksRun+1 {
		t.Errorf("tasks run %d -> %d, want the hit counted", before.Workers.TasksRun, after.Workers.TasksRun)
	}
	if after.Queue.Depth != 1 {
		t.Errorf("queue depth = %d, want the one queued miss", after.Queue.Depth)
	}
	if got, err := s.Job(job.ID()); err != nil || got != job {
		t.Errorf("Job(%q) = %v, %v; want the hit's job", job.ID(), got, err)
	}
}

// A sweep mixing memory hits and misses lands every row at its own index,
// hits flagged Cached, each outcome equal to a direct run.
func TestSweepMixesHitsAndMisses(t *testing.T) {
	s := newService(t, Config{Workers: 1, BatchSize: 2})
	runOne(t, s, scenario(64))
	runOne(t, s, scenario(256))
	lengths := []int{64, 128, 256, 512}
	wantCached := []bool{true, false, true, false}
	var scs []sim.Scenario
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
	if st.Completed != len(scs) || st.Failed != 0 || st.CacheHits != 2 {
		t.Fatalf("status = %+v", st)
	}
	for i, res := range st.Results {
		if res.Index != i || res.Cached != wantCached[i] || res.Label != scs[i].Label() {
			t.Errorf("row %d = index %d, cached %v, label %q; want %d, %v, %q",
				i, res.Index, res.Cached, res.Label, i, wantCached[i], scs[i].Label())
		}
		direct, err := sim.Run(scs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*res.Outcome, direct) {
			t.Errorf("row %d (n=%d): outcome differs from a direct run", i, lengths[i])
		}
		if job.Key(i) == "" {
			t.Errorf("row %d has no cache key", i)
		}
	}
}

// A job whose ctx is done before Submit fails every row with the ctx's
// cause, memory hits included, and looks nothing up.
func TestCanceledJobFailsItsHits(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	runOne(t, s, scenario(64))
	before := s.Cache().Stats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
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
	if st.Failed != 2 || st.CacheHits != 0 {
		t.Fatalf("status = %+v, want both rows failed, no hits", st)
	}
	for i, res := range st.Results {
		if res.Error != context.Canceled.Error() {
			t.Errorf("row %d error = %q, want %q", i, res.Error, context.Canceled)
		}
	}
	if after := s.Cache().Stats(); after.Hits != before.Hits {
		t.Errorf("canceled job counted %d cache hits", after.Hits-before.Hits)
	}
}
