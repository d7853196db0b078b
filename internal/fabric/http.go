package fabric

import (
	"errors"
	"net/http"

	"rdramstream/internal/obs"
	"rdramstream/internal/service"
)

// FleetResponse is the body of GET /v1/fabric/workers: the fleet's
// health and the coordinator's cumulative counters.
//
// rdlint:wire — fabric introspection wire format.
type FleetResponse struct {
	Workers []WorkerStatus `json:"workers"`
	Stats   Stats          `json:"stats"`
}

// Handler layers the coordinator's routes over a local rdserved handler:
//
//	POST /v1/fabric/register  worker registration / liveness refresh
//	GET  /v1/fabric/workers   fleet health + coordinator stats
//	POST /v1/sweep            distributed sweep (NDJSON, input order)
//	POST /v1/simulate         one scenario through the fabric
//	GET  /metrics             publishes rd_fabric_* series, then delegates
//
// The sweep and simulate routes are the local service's own handler with
// the coordinator as its HandlerOptions.Submit: the coordinator opens the
// job in that service, so the request is traced, counted and answered
// (statuses included) as on a plain rdserved, and its job ID is served by
// GET /v1/jobs/{id}. Everything else falls through to local, so a
// coordinator is a superset of a plain rdserved.
func Handler(co *Coordinator, local http.Handler) http.Handler {
	sweeps := service.NewHandlerWith(co.cfg.Local, service.HandlerOptions{Submit: co.Submit})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fabric/register", co.handleRegister)
	mux.HandleFunc("GET /v1/fabric/workers", co.handleWorkers)
	mux.Handle("POST /v1/sweep", sweeps)
	mux.Handle("POST /v1/simulate", sweeps)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		co.publishMetrics()
		local.ServeHTTP(w, r)
	})
	mux.Handle("/", local)
	return mux
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req service.RegisterRequest
	if err := service.DecodeStrict(r, &req); err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := c.Register(req.Addr); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		service.WriteError(w, status, err)
		return
	}
	service.WriteJSON(w, http.StatusOK, c.fleetResponse())
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	service.WriteJSON(w, http.StatusOK, c.fleetResponse())
}

func (c *Coordinator) fleetResponse() FleetResponse {
	return FleetResponse{Workers: c.Workers(), Stats: c.Stats()}
}

// publishMetrics mirrors the coordinator's snapshot into the shared
// Prometheus registry at scrape time: fleet gauges, cumulative fabric
// counters, and one rd_fabric_worker_up gauge per worker (sorted
// iteration — WorkerStatus order is the sorted address order).
func (c *Coordinator) publishMetrics() {
	if c.obsv == nil {
		return
	}
	reg := c.obsv.Reg
	st := c.Stats()
	reg.SetGauge("rd_fabric_workers", "Registered fabric workers.", float64(st.Workers))
	reg.SetGauge("rd_fabric_workers_live", "Workers currently eligible for shards (not dead, breaker closed).", float64(st.Live))
	reg.SetGauge("rd_fabric_inflight_sweeps", "Distributed sweeps executing right now.", float64(c.inflightNow()))
	reg.SetCounter("rd_fabric_sweeps_total", "Distributed sweeps admitted.", float64(st.Sweeps))
	reg.SetCounter("rd_fabric_remote_scenarios_total", "Scenario attempts dispatched to workers.", float64(st.RemoteScenarios))
	reg.SetCounter("rd_fabric_local_scenarios_total", "Scenarios executed on the coordinator's local fallback.", float64(st.LocalScenarios))
	reg.SetCounter("rd_fabric_reshards_total", "Scenario re-assignments after mid-sweep worker failures.", float64(st.Reshards))
	reg.SetCounter("rd_fabric_shed_total", "Sweeps rejected by admission control (HTTP 429).", float64(st.Shed))
	reg.SetCounter("rd_fabric_worker_failures_total", "Failed remote attempts across all workers.", float64(st.WorkerFailures))
	for _, ws := range c.Workers() {
		up := 0.0
		if ws.State == WorkerLive {
			up = 1.0
		}
		reg.SetGauge("rd_fabric_worker_up", "Per-worker shard eligibility (1 = live).", up, obs.L("worker", ws.Addr))
	}
}

func (c *Coordinator) inflightNow() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}
