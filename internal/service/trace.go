package service

import (
	"errors"
	"fmt"
	"net/http"

	"rdramstream/internal/sim"
	"rdramstream/internal/tracegen"
)

// TraceHeader is the first NDJSON line of a POST /v1/trace body: the
// tracegen.Header fields plus the scenario to replay the trace under.
// Exactly Accesses tracegen.Line rows follow; the response is the same
// SimulateResponse as POST /v1/simulate. The scenario's Workload must
// not itself carry a program or access list — the body IS the trace —
// but may set the replay pipeline depth (Outstanding).
//
// rdlint:wire — trace-ingestion wire format.
type TraceHeader struct {
	// Format must be tracegen.FormatV1.
	Format string `json:"format"`
	// Name labels the trace.
	Name string `json:"name,omitempty"`
	// Accesses is the exact number of access lines that follow.
	Accesses int `json:"accesses"`
	// Scenario configures the replay (scheme, line size, controller,
	// device, faults). Kernel fields must be unset.
	Scenario sim.Scenario `json:"scenario"`
}

// handleTrace ingests a streamed NDJSON trace and runs it through the
// same queue, cache, and telemetry path as every other scenario: the
// decoded accesses become the scenario's Workload, whose cache key is
// the trace's content digest — so re-POSTing an identical trace (or
// submitting the generator program it came from) is a cache hit, and
// the fabric shards it to the same worker.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	dec := tracegen.NewDecoder(r.Body)
	var hdr TraceHeader
	if err := dec.DecodeHeader(&hdr); err != nil {
		failRequest(w, r, http.StatusBadRequest, err)
		return
	}
	if hdr.Format != tracegen.FormatV1 {
		failRequest(w, r, http.StatusBadRequest,
			fmt.Errorf("service: unknown trace format %q (want %q)", hdr.Format, tracegen.FormatV1))
		return
	}
	accs, err := dec.ReadAccesses(hdr.Accesses)
	if err != nil {
		failRequest(w, r, http.StatusBadRequest, err)
		return
	}
	sc := hdr.Scenario
	spec := tracegen.Spec{Accesses: accs}
	if sc.Workload != nil {
		if sc.Workload.Program != nil || len(sc.Workload.Accesses) > 0 {
			failRequest(w, r, http.StatusBadRequest,
				errors.New("service: the scenario of a trace POST must not carry an inline program or access list; the body is the trace"))
			return
		}
		spec.Outstanding = sc.Workload.Outstanding
	}
	sc.Workload = &spec
	job, err := s.SubmitOne(r.Context(), sc)
	s.respond(w, r, job, err)
}
