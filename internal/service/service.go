// Package service is the simulation serving layer: a job queue that
// accepts single scenarios and whole sweeps, coalesces queued work into
// batches, and executes the batches on the engine's bounded worker pool
// through the content-addressed result cache (internal/resultcache).
// Identical scenarios — across requests, across jobs, across time — run
// once; everything else runs at the configured parallelism with
// per-request cancellation threaded down to the scenario boundary via
// engine.MapCtx. Scenarios already in the cache's memory tier never
// enter the queue: Submit answers them itself, so a hit never waits
// behind a simulation. Open registers a job without queueing it, for a
// caller that runs the scenarios elsewhere (the fabric coordinator) and
// lands their results with Job.Land.
//
// The HTTP front end (http.go, served by cmd/rdserved) and the Go client
// (client subpackage) are thin shells over this type: all queueing,
// batching, caching, and telemetry-aggregation behavior lives here and is
// exercised directly by the package tests.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"rdramstream/internal/engine"
	"rdramstream/internal/obs"
	"rdramstream/internal/resultcache"
	"rdramstream/internal/sim"
	"rdramstream/internal/telemetry"
	"rdramstream/internal/version"
)

// Config sizes a Service. The zero value is usable.
type Config struct {
	// Workers bounds the simulation worker pool (<= 0 uses GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-but-not-started scenarios
	// across all jobs (default 1024). Only cache misses queue: memory hits
	// are answered at submit and take no slot. Submissions whose misses
	// would overflow fail with ErrQueueFull — all-or-nothing, never a
	// partial sweep.
	QueueDepth int
	// BatchSize is the most scenarios one dispatcher batch hands to
	// engine.MapCtx (default 32). Batching amortizes pool startup and
	// lets concurrent small requests share one worker-pool spin-up.
	BatchSize int
	// JobRetention is how many finished jobs remain queryable through
	// Job/GET /v1/jobs after completion (default 256, oldest evicted).
	JobRetention int
	// Cache, when non-nil, is the result cache to serve from; nil builds
	// a default in-memory cache (1024 entries, no disk store).
	Cache *resultcache.Cache
	// Obs, when non-nil, is the observability state (trace ring + metrics
	// registry) the service records into; nil builds a default Observer.
	// Wall-clock timing lives here and in internal/obs — never in the
	// simulation core — and attaching it cannot change any simulated
	// outcome: traces and histograms only watch the request path.
	Obs *obs.Observer
}

// Submission/lifecycle errors, matchable with errors.Is.
var (
	ErrClosed     = errors.New("service: closed")
	ErrQueueFull  = errors.New("service: queue full")
	ErrEmptyJob   = errors.New("service: job has no scenarios")
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrSaturated is a submission that admission control shed (a fabric
	// coordinator's bound on sweeps in flight): HTTP 429 with
	// Retry-After, so a client with a retry budget backs off.
	ErrSaturated = errors.New("service: saturated (too many sweeps in flight)")
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
)

// ScenarioResult is one scenario's terminal record within a job.
type ScenarioResult struct {
	Index int `json:"index"`
	// Label is the scenario's kernel/scheme/controller identifier.
	Label string `json:"label"`
	// Cached reports whether the outcome came from the result cache
	// rather than a fresh simulation (in-flight dedup counts as fresh).
	Cached  bool         `json:"cached"`
	Outcome *sim.Outcome `json:"outcome,omitempty"`
	Error   string       `json:"error,omitempty"`

	// encoded is Outcome's JSON from the cache entry (resultcache.Result),
	// which the /v1/simulate and /v1/trace bodies embed as is.
	encoded []byte
}

// JobStatus is a point-in-time snapshot of a job.
type JobStatus struct {
	ID        string `json:"id"`
	State     State  `json:"state"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	CacheHits int    `json:"cache_hits"`
	// Results holds one entry per finished scenario, in input order;
	// pending scenarios are nil.
	Results []*ScenarioResult `json:"results,omitempty"`
}

// Job tracks one submission (a single scenario or a whole sweep) through
// the queue, or through whatever runs the scenarios of a job Open
// registered. Results land in input order as scenarios finish.
type Job struct {
	id   string
	ctx  context.Context
	keys []string // keys[i] is scenario i's cache key; set at construction, never mutated

	mu        sync.Mutex
	state     State             // guarded by mu
	completed int               // guarded by mu
	failed    int               // guarded by mu
	cacheHits int               // guarded by mu
	results   []*ScenarioResult // guarded by mu
	ready     []chan struct{}   // ready[i] closes when results[i] lands; the slice is sized at construction and never reassigned
	done      chan struct{}     // closes when every scenario is terminal
}

// ID returns the job's queryable identifier.
func (j *Job) ID() string { return j.id }

// Key returns scenario i's content address in the result cache, the
// key Submit or Open computed once for every cache call the scenario
// makes.
func (j *Job) Key(i int) string { return j.keys[i] }

// Done returns a channel closed when every scenario in the job is
// terminal.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes or ctx is done.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// WaitResult blocks until scenario i's result lands (or ctx is done) and
// returns it. Streaming responses call it for i = 0, 1, 2, … to emit
// results in input order as they complete.
func (j *Job) WaitResult(ctx context.Context, i int) (ScenarioResult, error) {
	if i < 0 || i >= len(j.ready) {
		return ScenarioResult{}, fmt.Errorf("service: job %s has no scenario %d", j.id, i)
	}
	select {
	case <-j.ready[i]:
		return *j.result(i), nil
	case <-ctx.Done():
		return ScenarioResult{}, context.Cause(ctx)
	}
}

func (j *Job) result(i int) *ScenarioResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.results[i]
}

// Status snapshots the job. Finished scenario results are shared (never
// mutated after landing); the slice itself is a copy.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, State: j.state, Total: len(j.results),
		Completed: j.completed, Failed: j.failed, CacheHits: j.cacheHits,
		Results: make([]*ScenarioResult, len(j.results)),
	}
	copy(st.Results, j.results)
	return st
}

func (j *Job) markRunning() {
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateRunning
	}
	j.mu.Unlock()
}

// Summary is the job's trailing sweep line: its ID and the counts of
// the results landed so far.
func (j *Job) Summary() SweepLine {
	j.mu.Lock()
	defer j.mu.Unlock()
	return SweepLine{
		Done: true, JobID: j.id, Total: len(j.results),
		CacheHits: j.cacheHits, Failed: j.failed,
	}
}

// Land records scenario i's terminal result. A slot lands once: Land
// reports false, and changes nothing, for a slot that has already
// landed. The service lands the jobs Submit queues; the caller of Open
// lands every slot of its job.
func (j *Job) Land(i int, res ScenarioResult) bool {
	j.mu.Lock()
	if j.results[i] != nil {
		j.mu.Unlock()
		return false
	}
	res.Index = i
	j.results[i] = &res
	j.completed++
	if res.Error != "" {
		j.failed++
	}
	if res.Cached {
		j.cacheHits++
	}
	allDone := j.completed == len(j.results)
	if allDone {
		j.state = StateDone
	}
	j.mu.Unlock()
	close(j.ready[i])
	if allDone {
		close(j.done)
	}
	return true
}

// task is one scenario of one job, the unit the queue and worker pool
// move around. The timestamps delimit its queue life: submitted is set at
// Submit, batched when the dispatcher coalesces it — runTask turns the
// gaps into queued and batch_wait spans on the request's trace.
type task struct {
	job       *Job
	i         int
	sc        sim.Scenario
	key       string
	submitted time.Time
	batched   time.Time
}

// Service is the job queue + batch dispatcher. Create with New, submit
// with Submit/SubmitOne, and shut down with Close.
type Service struct {
	workers      int
	queueDepth   int
	batchSize    int
	jobRetention int
	cache        *resultcache.Cache

	ctx    context.Context // hard-stop scope for dispatch batches
	cancel context.CancelCauseFunc

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*task         // guarded by mu
	closed   bool            // guarded by mu
	jobs     map[string]*Job // guarded by mu
	jobOrder []*Job          // guarded by mu; submission order, for retention eviction
	nextJob  int64           // guarded by mu

	obsv *obs.Observer

	// obsMu guards the run counters and the stall aggregate as one group:
	// related mutations (a finishing task decrements busy AND increments
	// tasksRun) happen in a single critical section, and Metrics reads
	// every field under the same lock, so a concurrent snapshot is
	// internally consistent — busy never exceeds the pool, tasksRun never
	// lags a decrement (race-tested). Leaf lock: never held while
	// acquiring s.mu or any cache lock.
	obsMu    sync.Mutex
	busy     int64                           // guarded by obsMu
	tasksRun int64                           // guarded by obsMu
	batches  int64                           // guarded by obsMu
	stalls   [telemetry.NumStallCauses]int64 // guarded by obsMu

	drained chan struct{} // dispatcher exited
}

// New builds and starts a Service.
func New(cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.JobRetention <= 0 {
		cfg.JobRetention = 256
	}
	cache := cfg.Cache
	if cache == nil {
		var err error
		if cache, err = resultcache.New(resultcache.Options{}); err != nil {
			return nil, err
		}
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewObserver(obs.ObserverOptions{})
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Service{
		workers:      cfg.Workers,
		queueDepth:   cfg.QueueDepth,
		batchSize:    cfg.BatchSize,
		jobRetention: cfg.JobRetention,
		cache:        cache,
		obsv:         cfg.Obs,
		ctx:          ctx,
		cancel:       cancel,
		jobs:         make(map[string]*Job),
		drained:      make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.dispatch()
	return s, nil
}

// Cache exposes the service's result cache (for tests and metrics).
func (s *Service) Cache() *resultcache.Cache { return s.cache }

// Obs exposes the service's observability state; the HTTP handler serves
// its trace ring and metrics registry.
func (s *Service) Obs() *obs.Observer { return s.obsv }

// latencyBoundsUS are the bounds of every latency histogram the service
// registers, built once: the registry keeps a family's bounds, so the
// per-request lookups of an existing series pass this slice, not a fresh
// one.
var latencyBoundsUS = obs.DefaultLatencyBoundsUS()

// observeStage records one stage latency into the shared per-stage
// histogram family. Registry registration is idempotent, so the first
// observation of a stage creates its series.
func (s *Service) observeStage(stage obs.Stage, d time.Duration) {
	if s.obsv == nil {
		return
	}
	s.obsv.Reg.Histogram("rd_stage_duration_us",
		"Request-stage latency in microseconds, by pipeline stage.",
		latencyBoundsUS, obs.L("stage", string(stage))).
		Observe(d.Microseconds())
}

// SubmitOne queues a single scenario.
func (s *Service) SubmitOne(ctx context.Context, sc sim.Scenario) (*Job, error) {
	return s.Submit(ctx, []sim.Scenario{sc})
}

// Submit queues a sweep as one job, all-or-nothing: every scenario is
// validated and keyed first (a malformed sweep is rejected whole, before
// anything runs) and the queue either has room for all of its cache
// misses or the submission fails with ErrQueueFull. Scenarios found in
// the cache's memory tier are answered before Submit returns and never
// queue, so a hit does not wait behind simulations; a hit found for a
// submission that then fails still counts as a cache hit. ctx scopes the
// job's execution — when it is canceled, scenarios not yet started fail
// with the context's error instead of running, and a job whose ctx is
// already done looks nothing up. ctx must be non-nil, per the usual
// context contract; use context.Background() at the call site for a job
// that should never be canceled.
func (s *Service) Submit(ctx context.Context, scs []sim.Scenario) (*Job, error) {
	keys, hits, err := s.keyAll(scs, ctx.Err() == nil)
	if err != nil {
		return nil, err
	}
	misses := len(scs) - len(hits)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if len(s.queue)+misses > s.queueDepth {
		depth := len(s.queue)
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %d queued + %d submitted > depth %d",
			ErrQueueFull, depth, misses, s.queueDepth)
	}
	job := s.openLocked(ctx, keys, StateQueued)
	now := s.obsv.Now()
	next := 0 // hits are in index order; skip each as the loop reaches it
	for i, sc := range scs {
		if next < len(hits) && hits[next].i == i {
			next++
			continue
		}
		s.queue = append(s.queue, &task{job: job, i: i, sc: sc, key: keys[i], submitted: now})
	}
	if misses > 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()

	if len(hits) > 0 {
		s.finishHits(job, scs, hits)
	}
	return job, nil
}

// Open validates and keys a sweep, as Submit does, and registers it as a
// running job, but queues nothing: the caller runs the scenarios (the
// fabric coordinator, across its workers) and lands each result with
// Job.Land. The job streams, answers GET /v1/jobs/{id} and is retained
// like any other. It counts as active, and is never evicted, until its
// last slot lands, so the caller must land every slot, with the error
// that stopped it if nothing else. ctx is the job's context, as for
// Submit.
func (s *Service) Open(ctx context.Context, scs []sim.Scenario) (*Job, error) {
	keys, _, err := s.keyAll(scs, false)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return s.openLocked(ctx, keys, StateRunning), nil
}

// keyAll validates every scenario, then keys each once, for every cache
// call it makes. With lookup it also consults the memory tier, which
// does no I/O, so this runs outside s.mu; the disk and peer tiers stay on
// the worker, inside DoKey.
func (s *Service) keyAll(scs []sim.Scenario, lookup bool) (keys []string, hits []memoryHit, err error) {
	if len(scs) == 0 {
		return nil, nil, ErrEmptyJob
	}
	for i, sc := range scs {
		if err := sc.Validate(); err != nil {
			return nil, nil, fmt.Errorf("service: scenario %d: %w", i, err)
		}
	}
	keys = make([]string, len(scs))
	for i, sc := range scs {
		start := s.obsv.Now()
		key, err := resultcache.Key(sc)
		if err != nil {
			return nil, nil, fmt.Errorf("service: scenario %d: %w", i, err)
		}
		keys[i] = key
		if !lookup {
			continue
		}
		if res, ok := s.cache.Hit(key); ok {
			hits = append(hits, memoryHit{i: i, res: res, start: start, end: s.obsv.Now()})
		}
	}
	return keys, hits, nil
}

// openLocked registers a job over keys in the given starting state.
// s.mu must be held.
func (s *Service) openLocked(ctx context.Context, keys []string, state State) *Job {
	s.nextJob++
	job := &Job{
		id:      fmt.Sprintf("job-%06d", s.nextJob),
		ctx:     ctx,
		keys:    keys,
		state:   state,
		results: make([]*ScenarioResult, len(keys)),
		ready:   make([]chan struct{}, len(keys)),
		done:    make(chan struct{}),
	}
	for i := range job.ready {
		job.ready[i] = make(chan struct{})
	}
	s.jobs[job.id] = job
	s.jobOrder = append(s.jobOrder, job)
	s.evictJobsLocked()
	return job
}

// memoryHit is one scenario Submit found in the cache's memory tier,
// with the span of its keying and lookup.
type memoryHit struct {
	i          int
	res        resultcache.Result
	start, end time.Time
}

// finishHits lands the memory hits Submit found. Each records the cache
// span, stage histogram and cache-hit count a worker would have, and
// counts as a task run, so the run counters cover every scenario served.
func (s *Service) finishHits(job *Job, scs []sim.Scenario, hits []memoryHit) {
	tr := obs.FromContext(job.ctx)
	// Book the runs before landing their results, so a caller woken by
	// the job already sees them in Metrics.
	s.obsMu.Lock()
	s.tasksRun += int64(len(hits))
	s.obsMu.Unlock()
	for k := range hits {
		h := &hits[k]
		label := scs[h.i].Label()
		tr.Span(obs.StageCache, h.start, h.end, label)
		s.observeStage(obs.StageCache, h.end.Sub(h.start))
		tr.AddCacheHit()
		job.Land(h.i, ScenarioResult{Label: label, Cached: true, Outcome: &h.res.Outcome, encoded: h.res.JSON})
	}
}

// evictJobsLocked drops the oldest finished jobs beyond the retention
// bound. Unfinished jobs are never evicted, whatever their age. Jobs
// usually finish in submission order, so eviction pops the front of
// jobOrder, O(1) amortized per Submit; only while the oldest job is
// still unfinished does it scan past it for finished ones.
func (s *Service) evictJobsLocked() {
	excess := len(s.jobOrder) - s.jobRetention
	for excess > 0 && s.jobOrder[0].finished() {
		delete(s.jobs, s.jobOrder[0].id)
		s.jobOrder[0] = nil
		s.jobOrder = s.jobOrder[1:]
		excess--
	}
	if excess <= 0 {
		return
	}
	kept := s.jobOrder[:0]
	for _, j := range s.jobOrder {
		if excess > 0 && j.finished() {
			delete(s.jobs, j.id)
			excess--
			continue
		}
		kept = append(kept, j)
	}
	clear(s.jobOrder[len(kept):])
	s.jobOrder = kept
}

// finished reports whether every scenario of the job is terminal.
func (j *Job) finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// Job looks a job up by ID.
func (s *Service) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j, nil
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownJob, id)
}

// dispatch is the single batching loop: it coalesces up to BatchSize
// queued tasks — across jobs — into one engine.MapCtx call at the
// configured worker count, then records every task's terminal state.
func (s *Service) dispatch() {
	defer close(s.drained)
	for {
		batch := s.nextBatch()
		if batch == nil {
			return
		}
		s.obsMu.Lock()
		s.batches++
		s.obsMu.Unlock()
		_, err := engine.MapCtx(s.ctx, s.workers, len(batch), func(i int) (struct{}, error) {
			s.runTask(batch[i])
			return struct{}{}, nil
		})
		if err != nil {
			// Hard stop (Close deadline): runTask recovers its own panics,
			// so this is cancellation. Everything in the batch that never
			// reached a terminal state fails now, so no waiter hangs.
			for _, t := range batch {
				t.job.Land(t.i, ScenarioResult{Label: t.sc.Label(), Error: err.Error()})
			}
		}
	}
}

// nextBatch blocks until work or shutdown; nil means drained-and-closed.
func (s *Service) nextBatch() []*task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.queue) == 0 {
		return nil
	}
	n := min(s.batchSize, len(s.queue))
	batch := append([]*task(nil), s.queue[:n]...)
	now := s.obsv.Now()
	for _, t := range batch {
		t.batched = now
	}
	s.queue = s.queue[n:]
	if len(s.queue) == 0 {
		// Let the backing array be reclaimed between bursts.
		s.queue = nil
	}
	return batch
}

// runTask executes one scenario through the cache and records its
// terminal state. It never returns an error: per-scenario failures land
// in the scenario's result so one bad row cannot sink a batch that also
// carries other jobs' work.
func (s *Service) runTask(t *task) {
	s.obsMu.Lock()
	s.busy++
	s.obsMu.Unlock()
	res := s.execute(t)
	// Book the run before landing its result, so a caller woken by the
	// job already sees it in Metrics.
	s.obsMu.Lock()
	s.busy--
	s.tasksRun++
	s.obsMu.Unlock()
	t.job.Land(t.i, res)
}

// execute runs one task through the cache and returns its terminal
// result.
func (s *Service) execute(t *task) (res ScenarioResult) {
	start := s.obsv.Now()
	// The cache already converts runner panics into errors; this recover
	// is the backstop for panics outside the runner, so a batch carrying
	// other jobs' work never dies with this task.
	defer func() {
		if r := recover(); r != nil {
			res = ScenarioResult{Label: t.sc.Label(), Error: fmt.Sprintf("service: task panicked: %v", r)}
		}
	}()
	// The request trace rides the job context from the HTTP handler; nil
	// (direct service use, tests) makes every Span call a no-op.
	tr := obs.FromContext(t.job.ctx)
	if !t.submitted.IsZero() && !t.batched.IsZero() {
		tr.Span(obs.StageQueued, t.submitted, t.batched, "")
		s.observeStage(obs.StageQueued, t.batched.Sub(t.submitted))
		tr.Span(obs.StageBatchWait, t.batched, start, "")
		s.observeStage(obs.StageBatchWait, start.Sub(t.batched))
	}
	t.job.markRunning()
	if err := t.job.ctx.Err(); err != nil {
		return ScenarioResult{Label: t.sc.Label(), Error: context.Cause(t.job.ctx).Error()}
	}
	label := t.sc.Label()
	var simStart, simEnd time.Time
	cacheStart := s.obsv.Now()
	entry, cached, err := s.cache.DoKey(t.job.ctx, t.key, t.sc, func(sc sim.Scenario) (sim.Outcome, error) {
		simStart = s.obsv.Now()
		o, e := sim.Run(sc)
		simEnd = s.obsv.Now()
		return o, e
	})
	cacheEnd := s.obsv.Now()
	if simStart.IsZero() {
		// Hit or deduped follower: no runner ran, so the whole Do — lookup
		// or the wait on the leader's run — is cache time.
		tr.Span(obs.StageCache, cacheStart, cacheEnd, label)
		s.observeStage(obs.StageCache, cacheEnd.Sub(cacheStart))
	} else {
		tr.Span(obs.StageCache, cacheStart, simStart, label)
		s.observeStage(obs.StageCache, simStart.Sub(cacheStart))
		tr.Span(obs.StageSimulate, simStart, simEnd, label)
		s.observeStage(obs.StageSimulate, simEnd.Sub(simStart))
	}
	if cached {
		tr.AddCacheHit()
	}
	// Only real executions add their outcome's stall attribution to the
	// /metrics aggregate: hits and deduped followers ran nothing.
	if !simStart.IsZero() && err == nil {
		s.obsMu.Lock()
		for c, cycles := range entry.Outcome.Device.Stalls {
			s.stalls[c] += cycles
		}
		s.obsMu.Unlock()
	}
	res = ScenarioResult{Label: label, Cached: cached}
	if err != nil {
		res.Error = err.Error()
	} else {
		res.Outcome, res.encoded = &entry.Outcome, entry.JSON
	}
	return res
}

// Close drains the service: no new submissions are accepted, queued work
// keeps executing, and Close returns once the queue is empty. If ctx
// expires first, the drain hardens into a stop — in-flight scenarios
// finish (the cancellation boundary is the scenario) but everything still
// queued fails with the shutdown cause, and ctx's error is returned.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		s.cancel(fmt.Errorf("service: shutdown deadline: %w", context.Cause(ctx)))
		<-s.drained
		return context.Cause(ctx)
	}
}

// QueueMetrics, WorkerMetrics, and JobMetrics are the /metrics sections.
type QueueMetrics struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
}

type WorkerMetrics struct {
	Configured int   `json:"configured"`
	Busy       int64 `json:"busy"`
	TasksRun   int64 `json:"tasks_run"`
	Batches    int64 `json:"batches"`
	// Utilization is the instantaneous busy fraction of the pool.
	Utilization float64 `json:"utilization"`
}

type JobMetrics struct {
	Submitted int64 `json:"submitted"`
	Active    int   `json:"active"`
	Retained  int   `json:"retained"`
}

// Metrics is the service-wide observability snapshot.
type Metrics struct {
	Version string            `json:"version"`
	Cache   resultcache.Stats `json:"cache"`
	Queue   QueueMetrics      `json:"queue"`
	Workers WorkerMetrics     `json:"workers"`
	Jobs    JobMetrics        `json:"jobs"`
	// Stalls sums the outcomes' Device.Stalls (idle DATA-bus cycles,
	// indexed by telemetry.StallCause) over every simulation this service
	// actually executed; cache hits contribute nothing.
	Stalls [telemetry.NumStallCauses]int64 `json:"stalls"`
}

// Metrics snapshots the service. Each section is read under its own
// single lock in one step — queue/job state under s.mu, run counters and
// stalls under s.obsMu, cache counters under the cache's stats lock — so
// within a section the numbers are mutually consistent: Busy can never
// exceed the concurrent-task high-water mark, and TasksRun never lags a
// Busy decrement it should include.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	depth := len(s.queue)
	submitted := s.nextJob
	retained := len(s.jobs)
	active := 0
	for _, j := range s.jobs {
		select {
		case <-j.done:
		default:
			active++
		}
	}
	s.mu.Unlock()

	s.obsMu.Lock()
	busy := s.busy
	tasksRun := s.tasksRun
	batches := s.batches
	stalls := s.stalls
	s.obsMu.Unlock()

	return Metrics{
		Version: version.Stamp(),
		Cache:   s.cache.Stats(),
		Queue:   QueueMetrics{Depth: depth, Capacity: s.queueDepth},
		Workers: WorkerMetrics{
			Configured:  s.workers,
			Busy:        busy,
			TasksRun:    tasksRun,
			Batches:     batches,
			Utilization: float64(busy) / float64(s.workers),
		},
		Jobs:   JobMetrics{Submitted: submitted, Active: active, Retained: retained},
		Stalls: stalls,
	}
}
