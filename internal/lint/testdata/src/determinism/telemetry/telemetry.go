// Package telemetry is a lint fixture: it borrows the probe package's
// name, which the determinism analyzer covers because every outcome
// carries the stall attribution and probes record simulated cycles. An
// event stamped on the wall clock would differ run to run.
package telemetry

import "time"

// Event is one recorded probe event.
type Event struct{ Start int64 }

// Stamp records an event at wall-clock time.
func Stamp() Event {
	return Event{Start: time.Now().UnixNano()} // want "time.Now in simulation core package \"telemetry\""
}

// At records an event at simulated cycle at: nothing here is flagged.
func At(at int64) Event { return Event{Start: at} }
