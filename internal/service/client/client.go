// Package client is the Go client for the rdserved HTTP API
// (internal/service): submit scenarios and sweeps to a running server
// instead of simulating in-process, sharing its result cache with every
// other client. cmd/sweep's -server flag is built on it, and the fabric
// coordinator (internal/fabric) uses it as the transport to its workers.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"rdramstream/internal/service"
	"rdramstream/internal/sim"
	"rdramstream/internal/tracegen"
	"rdramstream/internal/workload"
)

// StatusError is the typed error for every non-2xx server response: it
// carries the HTTP status code so callers (retry loops, circuit
// breakers) can classify failures instead of parsing error strings.
// Match with errors.As.
type StatusError struct {
	// Code is the HTTP status code (e.g. 429, 503).
	Code int
	// Status is the full status line text ("503 Service Unavailable").
	Status string
	// Message is the server's error body (the "error" field of the JSON
	// body when present, the raw body otherwise).
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: server %s: %s", e.Status, e.Message)
}

// Temporary reports whether the failure is worth retrying: 429 (shed by
// admission control) and 5xx (overload, shutdown, transient server
// faults) are; 4xx request errors are not.
func (e *StatusError) Temporary() bool {
	return e.Code == http.StatusTooManyRequests || e.Code >= 500
}

// IsStatus reports whether err carries the given HTTP status code.
func IsStatus(err error, code int) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == code
}

// Client talks to one rdserved instance. The zero HTTPClient means
// http.DefaultClient.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8347".
	BaseURL string
	// HTTPClient, when non-nil, overrides http.DefaultClient (tests,
	// timeouts, transports).
	HTTPClient *http.Client
	// Timeout, when positive, bounds each request end to end — for
	// streaming calls (Sweep) it covers the whole stream, not just the
	// first byte. It composes with the caller's ctx: whichever deadline
	// is earlier wins.
	Timeout time.Duration
}

// New builds a client for a server root URL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// reqCtx applies the client's per-request timeout to ctx.
func (c *Client) reqCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.Timeout > 0 {
		return context.WithTimeout(ctx, c.Timeout)
	}
	return ctx, func() {}
}

// apiError decodes the server's error body into a *StatusError.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	se := &StatusError{Code: resp.StatusCode, Status: resp.Status}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		se.Message = e.Error
	} else {
		se.Message = string(bytes.TrimSpace(body))
	}
	return se
}

func (c *Client) post(ctx context.Context, path string, body any) (*http.Response, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.http().Do(req)
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Simulate runs one scenario on the server and returns its response
// (outcome, cache key, and whether it was a cache hit).
func (c *Client) Simulate(ctx context.Context, sc sim.Scenario) (service.SimulateResponse, error) {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	var out service.SimulateResponse
	resp, err := c.post(ctx, "/v1/simulate", sc)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, apiError(resp)
	}
	if err := service.DecodeResponse(resp.Body, &out); err != nil {
		return out, fmt.Errorf("client: decoding response: %w", err)
	}
	return out, nil
}

// Trace posts an NDJSON trace body (POST /v1/trace): a header carrying
// the scenario, then one line per access. The server replays the trace
// under the scenario and answers like Simulate — the cache key is the
// trace's content digest, so posting the same trace twice is a hit.
// The scenario's Workload must not carry an inline program or access
// list (it may set Outstanding).
func (c *Client) Trace(ctx context.Context, sc sim.Scenario, name string, accs []workload.TraceAccess) (service.SimulateResponse, error) {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	var out service.SimulateResponse
	hdr, err := json.Marshal(service.TraceHeader{
		Format: tracegen.FormatV1, Name: name, Accesses: len(accs), Scenario: sc,
	})
	if err != nil {
		return out, fmt.Errorf("client: encoding trace header: %w", err)
	}
	// Size the body exactly: one allocation, no regrowth.
	size := len(hdr) + 1
	var line [tracegen.MaxLineBytes]byte
	for _, a := range accs {
		size += len(tracegen.AppendLine(line[:0], a))
	}
	body := make([]byte, 0, size)
	body = append(append(body, hdr...), '\n')
	for _, a := range accs {
		body = tracegen.AppendLine(body, a)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/trace", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.http().Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, apiError(resp)
	}
	if err := service.DecodeResponse(resp.Body, &out); err != nil {
		return out, fmt.Errorf("client: decoding response: %w", err)
	}
	return out, nil
}

// Sweep streams a scenario list through the server. Each per-scenario
// line arrives in input order and is handed to fn as it lands (fn may be
// nil); the trailing summary line is returned. A non-nil error from fn
// aborts the stream.
func (c *Client) Sweep(ctx context.Context, scs []sim.Scenario, fn func(service.SweepLine) error) (service.SweepLine, error) {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	var summary service.SweepLine
	resp, err := c.post(ctx, "/v1/sweep", service.SweepRequest{Scenarios: scs})
	if err != nil {
		return summary, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return summary, apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var l service.SweepLine
		if err := json.Unmarshal(line, &l); err != nil {
			return summary, fmt.Errorf("client: decoding stream line: %w", err)
		}
		if l.Done {
			summary = l
			return summary, nil
		}
		if fn != nil {
			if err := fn(l); err != nil {
				return summary, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return summary, fmt.Errorf("client: reading stream: %w", err)
	}
	return summary, fmt.Errorf("client: stream ended without a summary line (server stopped mid-sweep?)")
}

// SweepOutcomes runs a sweep and collects the outcomes in input order —
// a drop-in remote replacement for sim.RunAll. Any per-scenario error
// aborts with that scenario's error, mirroring local sweep semantics.
func (c *Client) SweepOutcomes(ctx context.Context, scs []sim.Scenario) ([]sim.Outcome, error) {
	outs := make([]sim.Outcome, 0, len(scs))
	_, err := c.Sweep(ctx, scs, func(l service.SweepLine) error {
		if l.Error != "" {
			return fmt.Errorf("client: scenario %d (%s): %s", l.Index, l.Label, l.Error)
		}
		if l.Outcome == nil {
			return fmt.Errorf("client: scenario %d (%s): result line carries no outcome", l.Index, l.Label)
		}
		outs = append(outs, *l.Outcome)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// Job fetches a job status snapshot.
func (c *Client) Job(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.getJSON(ctx, "/v1/jobs/"+id, &st)
	return st, err
}

// Health checks GET /healthz.
func (c *Client) Health(ctx context.Context) (service.HealthResponse, error) {
	var h service.HealthResponse
	err := c.getJSON(ctx, "/healthz", &h)
	return h, err
}

// RegisterWorker announces a worker's advertised base URL to a fabric
// coordinator (POST /v1/fabric/register). Workers call it periodically:
// registration is idempotent and doubles as a liveness refresh.
func (c *Client) RegisterWorker(ctx context.Context, addr string) error {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	resp, err := c.post(ctx, "/v1/fabric/register", service.RegisterRequest{Addr: addr})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	return nil
}

// CachedOutcome asks the server's result cache for a key without running
// anything (GET /v1/cache/{key}) — the peer tier of the layered cache. A
// miss returns ok=false with a nil error; transport failures and non-404
// statuses return the error.
func (c *Client) CachedOutcome(ctx context.Context, key string) (sim.Outcome, bool, error) {
	var out service.CacheEntryResponse
	err := c.getJSON(ctx, "/v1/cache/"+key, &out)
	if err != nil {
		if IsStatus(err, http.StatusNotFound) {
			return sim.Outcome{}, false, nil
		}
		return sim.Outcome{}, false, err
	}
	return out.Outcome, true, nil
}

// MetricsText fetches the Prometheus text exposition of GET /metrics.
func (c *Client) MetricsText(ctx context.Context) ([]byte, error) {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	return io.ReadAll(resp.Body)
}
