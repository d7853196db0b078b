package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"rdramstream/internal/obs"
	"rdramstream/internal/resultcache"
	"rdramstream/internal/sim"
	"rdramstream/internal/telemetry"
	"rdramstream/internal/version"
)

// Wire types shared by the handler and the client subpackage. The request
// body of POST /v1/simulate is a bare sim.Scenario in JSON (observer
// fields are excluded by their tags); sweeps wrap a scenario list.

// SweepRequest is the body of POST /v1/sweep.
type SweepRequest struct {
	Scenarios []sim.Scenario `json:"scenarios"`
}

// SimulateResponse is the body of POST /v1/simulate (and /v1/trace).
// The server writes it as a resultcache.Envelope of these fields, in
// this order, around the cache entry's encoded outcome (respond).
type SimulateResponse struct {
	JobID string `json:"job_id"`
	// Cached reports whether the outcome was served from the result cache.
	Cached bool `json:"cached"`
	// Key is the scenario's content address in the cache.
	Key     string      `json:"key"`
	Outcome sim.Outcome `json:"outcome"`
}

// SweepLine is one NDJSON line of a POST /v1/sweep response: either a
// per-scenario result (in input order, streamed as each completes) or the
// trailing summary line (Done = true).
type SweepLine struct {
	Index   int          `json:"index"`
	Label   string       `json:"label,omitempty"`
	Cached  bool         `json:"cached,omitempty"`
	Outcome *sim.Outcome `json:"outcome,omitempty"`
	Error   string       `json:"error,omitempty"`

	Done      bool   `json:"done,omitempty"`
	JobID     string `json:"job_id,omitempty"`
	Total     int    `json:"total,omitempty"`
	CacheHits int    `json:"cache_hits,omitempty"`
	Failed    int    `json:"failed,omitempty"`
}

// Line is the result's NDJSON sweep line.
func (r ScenarioResult) Line() SweepLine {
	return SweepLine{
		Index: r.Index, Label: r.Label, Cached: r.Cached,
		Outcome: r.Outcome, Error: r.Error,
	}
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status  string `json:"status"`
	Version string `json:"version"`
}

// RegisterRequest is the body of POST /v1/fabric/register (served by the
// fabric coordinator, sent by workers via client.RegisterWorker).
//
// rdlint:wire — fabric registration wire format.
type RegisterRequest struct {
	// Addr is the worker's advertised base URL, e.g. "http://10.0.0.7:8347".
	Addr string `json:"addr"`
}

// CacheEntryResponse is the body of GET /v1/cache/{key}: one result-
// cache entry looked up by its content address (the peer tier of the
// layered cache). A miss is a 404. Like SimulateResponse, the server
// writes it as an Envelope around the entry's encoded outcome.
//
// rdlint:wire — peer cache-probe wire format.
type CacheEntryResponse struct {
	Key     string      `json:"key"`
	Outcome sim.Outcome `json:"outcome"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

// HandlerOptions configures the optional surfaces of the HTTP handler.
type HandlerOptions struct {
	// PProf mounts net/http/pprof under /debug/pprof/ when true. Off by
	// default: profiling endpoints expose process internals and belong
	// behind an explicit flag (rdserved -pprof).
	PProf bool
	// Submit, when non-nil, takes Service.Submit's place for POST
	// /v1/simulate and POST /v1/sweep. A fabric coordinator's handler
	// (fabric.Handler) sets it to the coordinator, which opens the job in
	// this service and lands the rows its workers send back, so the job
	// streams, answers and is traced as a local one is. POST /v1/trace
	// always submits to the service.
	Submit func(ctx context.Context, scs []sim.Scenario) (*Job, error)
}

// NewHandler wires the service's HTTP API with default options:
//
//	POST /v1/simulate      one scenario, synchronous JSON response
//	POST /v1/sweep         scenario list, NDJSON stream in input order
//	POST /v1/trace         NDJSON trace (header + access lines), replayed
//	                       under the header's scenario; response matches
//	                       /v1/simulate
//	GET  /v1/jobs/{id}     job status snapshot
//	GET  /v1/requests/{id} one request trace (spans, status, counts)
//	GET  /debug/requests   recent traces (?format=json|jsonl|chrome)
//	GET  /healthz          liveness + version stamp
//	GET  /metrics          Prometheus text exposition
//
// Every API request is traced: the middleware opens a Trace (honoring a
// client X-Request-ID), threads it down the job context, records the
// route/status counter and request-latency histogram, and echoes the
// request ID back in the X-Request-ID response header.
func NewHandler(s *Service) http.Handler {
	return NewHandlerWith(s, HandlerOptions{})
}

// NewHandlerWith is NewHandler with explicit options.
func NewHandlerWith(s *Service, opt HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) { s.handleSimulate(w, r, opt.Submit) })
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) { s.handleSweep(w, r, opt.Submit) })
	mux.HandleFunc("POST /v1/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCachePeek)
	mux.HandleFunc("GET /v1/requests/{id}", s.handleRequest)
	mux.HandleFunc("GET /debug/requests", s.handleRequests)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if opt.PProf {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.instrument(mux)
}

// routeLabel normalizes a request to a bounded route-label set, so
// arbitrary client paths cannot mint unbounded metric series.
func routeLabel(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/simulate":
		return "POST /v1/simulate"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/sweep":
		return "POST /v1/sweep"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/trace":
		return "POST /v1/trace"
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		return "GET /v1/jobs/{id}"
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/requests/"):
		return "GET /v1/requests/{id}"
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/cache/"):
		return "GET /v1/cache/{key}"
	case r.Method == http.MethodGet && r.URL.Path == "/healthz":
		return "GET /healthz"
	case r.Method == http.MethodGet && r.URL.Path == "/metrics":
		return "GET /metrics"
	case strings.HasPrefix(r.URL.Path, "/debug/"):
		return "debug"
	default:
		return "other"
	}
}

// statusWriter captures the response status code. It preserves
// http.Flusher — the sweep handler streams NDJSON through it — by
// implementing Flush itself rather than hiding the underlying writer's.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// traced reports whether a route gets a request trace. Introspection
// endpoints are counted in the HTTP metrics but not traced: a scrape
// every few seconds would churn the ring out of useful request traces.
func traced(route string) bool {
	switch route {
	case "GET /metrics", "GET /healthz", "GET /v1/requests/{id}", "GET /v1/cache/{key}", "debug", "other":
		return false
	}
	return true
}

// instrument wraps the mux with per-request observability: a Trace on
// the context for API routes, the rd_http_requests_total counter, and
// the rd_http_request_duration_us histogram for every route.
func (s *Service) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o := s.obsv
		if o == nil {
			next.ServeHTTP(w, r)
			return
		}
		route := routeLabel(r)
		start := o.Now()
		sw := &statusWriter{ResponseWriter: w}
		var tr *obs.Trace
		if traced(route) {
			tr = o.NewTrace(r.Header.Get("X-Request-ID"), route)
			w.Header().Set("X-Request-ID", tr.ID())
			r = r.WithContext(obs.NewContext(r.Context(), tr))
		}
		next.ServeHTTP(sw, r)
		end := o.Now()
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		tr.SetStatus(sw.status)
		tr.Finish()
		o.Reg.Counter("rd_http_requests_total",
			"HTTP requests by route and status code.",
			obs.L("route", route), obs.L("code", codeLabel(sw.status))).Inc()
		o.Reg.Histogram("rd_http_request_duration_us",
			"End-to-end HTTP request latency in microseconds, by route.",
			latencyBoundsUS, obs.L("route", route)).
			Observe(end.Sub(start).Microseconds())
	})
}

// codeLabel is the code label of a status: a constant for every status
// the handlers write, so counting a request allocates no string.
func codeLabel(status int) string {
	switch status {
	case http.StatusOK:
		return "200"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusUnprocessableEntity:
		return "422"
	case http.StatusTooManyRequests:
		return "429"
	case http.StatusInternalServerError:
		return "500"
	case http.StatusServiceUnavailable:
		return "503"
	}
	return strconv.Itoa(status)
}

// WriteJSON emits one JSON body. Marshal errors cannot occur for our wire
// types; a broken connection is the client's problem. Bodies that carry
// an outcome are written by writeOutcome instead.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError emits the error body every non-2xx response carries.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, errorResponse{Error: err.Error()})
}

// newEnvelope starts a response body with room for the encoded outcome
// frag it will close around.
func newEnvelope(frag []byte) resultcache.Envelope {
	return make(resultcache.Envelope, 0, len(frag)+192)
}

// writeOutcome writes a 200 body: env closed around frag, an entry's
// encoded outcome, in one Write. The bytes are those WriteJSON gives for
// the wire type env's fields spell out.
func writeOutcome(w http.ResponseWriter, r *http.Request, env resultcache.Envelope, frag []byte) {
	if frag == nil {
		failRequest(w, r, http.StatusInternalServerError, resultcache.ErrNoEncoding)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(env.Outcome(frag))
}

// failRequest records the error on the request's trace (when one is
// attached) and writes the error response.
func failRequest(w http.ResponseWriter, r *http.Request, status int, err error) {
	obs.FromContext(r.Context()).SetError(err.Error())
	WriteError(w, status, err)
}

// retryAfterSeconds is the advisory Retry-After of a shed submission:
// long enough for the sweeps in flight to make progress, short enough
// that a recovered coordinator refills quickly.
const retryAfterSeconds = "1"

// failSubmit answers a refused submission, the one mapping of submit
// errors to statuses for a plain server and a fabric coordinator alike:
// shed load is 429 with Retry-After, a full queue or a closed server 503,
// and anything else (an empty or invalid sweep) 400.
func failSubmit(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrSaturated):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", retryAfterSeconds)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	failRequest(w, r, status, err)
}

// DecodeStrict decodes one JSON body, rejecting unknown fields so a typo
// in a scenario field fails loudly instead of silently simulating the
// default.
func DecodeStrict(r *http.Request, v any) error {
	return decodeStrict(r.Body, v)
}

// handleSimulate submits one scenario through submit, or, when it is
// nil, to the service itself: the direct call keeps a hit's one-scenario
// slice off the heap.
func (s *Service) handleSimulate(w http.ResponseWriter, r *http.Request, submit func(context.Context, []sim.Scenario) (*Job, error)) {
	var sc sim.Scenario
	if err := decodeScenario(r, &sc); err != nil {
		failRequest(w, r, http.StatusBadRequest, err)
		return
	}
	var job *Job
	var err error
	if submit == nil {
		job, err = s.SubmitOne(r.Context(), sc)
	} else {
		job, err = submit(r.Context(), []sim.Scenario{sc})
	}
	s.respond(w, r, job, err)
}

// respond is the tail of /v1/simulate and /v1/trace: it takes the
// submission of one scenario, waits for its result and writes the
// SimulateResponse body around the outcome's encoding.
func (s *Service) respond(w http.ResponseWriter, r *http.Request, job *Job, err error) {
	tr := obs.FromContext(r.Context())
	tr.AddScenarios(1)
	if err != nil {
		failSubmit(w, r, err)
		return
	}
	// The stream span covers the response phase: the wait for the result
	// (which overlaps the scenario's queued/cache/simulate spans) plus
	// the body write.
	streamStart := s.obsv.Now()
	res, err := job.WaitResult(r.Context(), 0)
	if err != nil {
		failRequest(w, r, http.StatusServiceUnavailable, err)
		return
	}
	if res.Error != "" {
		failRequest(w, r, http.StatusUnprocessableEntity, errors.New(res.Error))
		return
	}
	frag := res.encoded
	if frag == nil && res.Outcome != nil {
		// A row a fabric worker sent back carries no cache entry's bytes.
		frag = resultcache.Encode(*res.Outcome).JSON
	}
	env := newEnvelope(frag).Str("job_id", job.ID()).Bool("cached", res.Cached).Str("key", job.Key(0))
	writeOutcome(w, r, env, frag)
	streamEnd := s.obsv.Now()
	tr.Span(obs.StageStream, streamStart, streamEnd, "")
	s.observeStage(obs.StageStream, streamEnd.Sub(streamStart))
}

// handleSweep submits a sweep through submit (nil: the service) and
// streams the job's results in input order, then its summary.
func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request, submit func(context.Context, []sim.Scenario) (*Job, error)) {
	var req SweepRequest
	if err := DecodeStrict(r, &req); err != nil {
		failRequest(w, r, http.StatusBadRequest, err)
		return
	}
	tr := obs.FromContext(r.Context())
	tr.AddScenarios(len(req.Scenarios))
	if submit == nil {
		submit = s.Submit
	}
	job, err := submit(r.Context(), req.Scenarios)
	if err != nil {
		failSubmit(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	streamStart := s.obsv.Now()
	for i := 0; i < len(req.Scenarios); i++ {
		res, err := job.WaitResult(r.Context(), i)
		if err != nil {
			// The client went away (or the server is hard-stopping) while
			// we streamed; nothing sensible left to send.
			tr.SetError(err.Error())
			return
		}
		enc.Encode(res.Line())
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc.Encode(job.Summary())
	if flusher != nil {
		flusher.Flush()
	}
	streamEnd := s.obsv.Now()
	tr.Span(obs.StageStream, streamStart, streamEnd, "")
	s.observeStage(obs.StageStream, streamEnd.Sub(streamStart))
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimSpace(r.PathValue("id"))
	job, err := s.Job(id)
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, job.Status())
}

// handleCachePeek answers peer cache probes: a raw content key, looked
// up in this server's local tiers only (memory, then disk — never its
// own peer tier, so probes cannot forward in a loop). Misses are 404;
// no hit/miss counters move, so peer probing never skews serving
// metrics.
func (s *Service) handleCachePeek(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimSpace(r.PathValue("key"))
	res, ok := s.cache.Peek(key)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("service: no cached outcome for key %q", key))
		return
	}
	writeOutcome(w, r, newEnvelope(res.JSON).Str("key", key), res.JSON)
}

// handleRequest serves one request trace by ID.
func (s *Service) handleRequest(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimSpace(r.PathValue("id"))
	tr, ok := s.obsv.Ring.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("service: unknown request %q (ring holds the most recent %d)", id, obs.DefaultRingSize))
		return
	}
	WriteJSON(w, http.StatusOK, tr.Record())
}

// handleRequests serves the recent-trace ring, oldest first:
// ?format=json (default) as a JSON array of trace records, ?format=jsonl
// as telemetry-event lines, ?format=chrome as a Chrome/Perfetto trace
// document — the same exporters that render simulation telemetry.
func (s *Service) handleRequests(w http.ResponseWriter, r *http.Request) {
	recs := s.obsv.Ring.Recent()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		WriteJSON(w, http.StatusOK, recs)
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		telemetry.WriteJSONL(w, obs.Events(recs))
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		telemetry.WriteChromeTrace(w, obs.Events(recs))
	default:
		WriteError(w, http.StatusBadRequest, fmt.Errorf("service: unknown trace format %q (want json, jsonl, or chrome)", format))
	}
}

func (s *Service) handleHealth(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok", Version: version.Stamp()})
}

// handleMetrics serves the Prometheus text exposition, publishing the
// Metrics() snapshot into the registry at scrape time.
func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.publishSnapshot(s.Metrics())
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	s.obsv.Reg.WritePrometheus(w)
}

// publishSnapshot mirrors one Metrics snapshot into the Prometheus
// registry as gauges and snapshot counters. The live series (HTTP
// counters, latency histograms) accumulate in the registry directly;
// everything whose source of truth is another subsystem's consistent
// snapshot is pushed here at scrape time.
func (s *Service) publishSnapshot(m Metrics) {
	reg := s.obsv.Reg
	reg.SetCounter("rd_cache_hits_total", "Result-cache requests answered from memory.", float64(m.Cache.Hits))
	reg.SetCounter("rd_cache_misses_total", "Result-cache requests that ran a simulation.", float64(m.Cache.Misses))
	reg.SetCounter("rd_cache_disk_hits_total", "Result-cache lookups rescued by the disk store (subset of hits).", float64(m.Cache.DiskHits))
	reg.SetCounter("rd_cache_peer_hits_total", "Result-cache lookups rescued by the peer tier (subset of hits).", float64(m.Cache.PeerHits))
	reg.SetCounter("rd_cache_dedups_total", "Requests that piggybacked on an identical in-flight simulation.", float64(m.Cache.Dedups))
	reg.SetCounter("rd_cache_evictions_total", "LRU entries displaced by newer ones.", float64(m.Cache.Evictions))
	reg.SetCounter("rd_cache_disk_errors_total", "Best-effort disk reads/writes that failed.", float64(m.Cache.DiskErrors))
	reg.SetGauge("rd_cache_entries", "Current in-memory result-cache entries.", float64(m.Cache.Entries))
	reg.SetGauge("rd_queue_depth", "Scenarios queued but not yet dispatched.", float64(m.Queue.Depth))
	reg.SetGauge("rd_queue_capacity", "Configured queue depth bound.", float64(m.Queue.Capacity))
	reg.SetGauge("rd_workers_busy", "Worker-pool tasks executing right now.", float64(m.Workers.Busy))
	reg.SetGauge("rd_workers_configured", "Configured worker-pool size.", float64(m.Workers.Configured))
	reg.SetGauge("rd_worker_utilization", "Instantaneous busy fraction of the worker pool.", m.Workers.Utilization)
	reg.SetCounter("rd_tasks_run_total", "Scenario tasks executed by the worker pool.", float64(m.Workers.TasksRun))
	reg.SetCounter("rd_batches_total", "Dispatcher batches handed to the engine.", float64(m.Workers.Batches))
	reg.SetCounter("rd_jobs_submitted_total", "Jobs registered, by Submit or by Open (a fabric sweep).", float64(m.Jobs.Submitted))
	reg.SetGauge("rd_jobs_active", "Jobs not yet finished.", float64(m.Jobs.Active))
	reg.SetGauge("rd_jobs_retained", "Finished and active jobs still queryable.", float64(m.Jobs.Retained))
	for c, cycles := range m.Stalls {
		reg.SetCounter("rd_sim_stall_cycles_total",
			"Idle DATA-bus cycles attributed by stall cause, summed over executed simulations.",
			float64(cycles), obs.L("cause", telemetry.StallCause(c).String()))
	}
}
