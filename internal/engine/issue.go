package engine

import (
	"fmt"

	"rdramstream/internal/rdram"
)

// MaxIssueAttempts bounds the retry loop in Issue: a device that rejects
// the same access this many times in a row is treated as wedged and the
// failure surfaces as a *RejectError instead of an unbounded spin.
const MaxIssueAttempts = 8

// RejectError reports an access the device refused MaxIssueAttempts times
// under fault injection.
type RejectError struct {
	Bank, Row, Col int
	Write          bool
	At             int64 // cycle of the first presentation
	Attempts       int
}

func (e *RejectError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("engine: %s bank=%d row=%d col=%d rejected %d times starting at cycle %d",
		op, e.Bank, e.Row, e.Col, e.Attempts, e.At)
}

// Issue presents req to the device, retrying with bounded exponential
// backoff when the fault injector rejects it: the first retry waits one
// packet time (t_PACK), doubling per attempt. This is the line issuer's
// (Lines) fault path — controllers with their own scheduler (the SMC)
// instead track per-FIFO retry times so rejections don't block unrelated
// streams. On a device with no injector Attempt never rejects and Issue is
// exactly Do. Like Attempt, Issue takes the request and fills the result
// by pointer: it is the line issuer's per-packet call.
func Issue(dev *rdram.Device, at int64, req *rdram.Request, res *rdram.Result) error {
	backoff := int64(dev.TPack())
	if backoff <= 0 {
		backoff = 4
	}
	t := at
	for attempt := 1; attempt <= MaxIssueAttempts; attempt++ {
		if dev.Attempt(t, req, res) {
			return nil
		}
		t += backoff
		backoff *= 2
	}
	return &RejectError{
		Bank: req.Bank, Row: req.Row, Col: req.Col, Write: req.Write,
		At: at, Attempts: MaxIssueAttempts,
	}
}

// DefaultWatchdogLimit is the forward-progress bound used when
// Options.WatchdogLimit is zero: 2^17 cycles (~330 µs of simulated time) is
// orders of magnitude longer than any legitimate gap between retired words
// in these workloads, yet small enough that a wedged run aborts promptly.
const DefaultWatchdogLimit = 1 << 17

// WatchdogError reports a controller loop that made no forward progress for
// longer than the configured limit. Dump carries a controller-specific
// state snapshot (FIFO occupancy, device stats) for diagnosis.
type WatchdogError struct {
	At           int64 // cycle at which the watchdog fired
	LastProgress int64 // cycle of the last useful word retired
	Limit        int64
	Dump         string
}

func (e *WatchdogError) Error() string {
	msg := fmt.Sprintf("engine: no forward progress for %d cycles (last useful word at cycle %d, aborted at %d, limit %d)",
		e.At-e.LastProgress, e.LastProgress, e.At, e.Limit)
	if e.Dump != "" {
		msg += "\n" + e.Dump
	}
	return msg
}

// Watchdog aborts controller loops that stop retiring useful words — the
// guard that turns a fault-injected livelock (or a future scheduling bug)
// into a diagnosable error instead of a hang. A nil Watchdog never fires.
type Watchdog struct {
	limit int64
	last  int64
}

// NewWatchdog builds a watchdog with the given forward-progress limit;
// limit <= 0 selects DefaultWatchdogLimit.
func NewWatchdog(limit int64) *Watchdog {
	if limit <= 0 {
		limit = DefaultWatchdogLimit
	}
	return &Watchdog{limit: limit}
}

// Progress records useful work completed at cycle at.
func (w *Watchdog) Progress(at int64) {
	if w == nil {
		return
	}
	if at > w.last {
		w.last = at
	}
}

// Check returns a *WatchdogError if the loop has advanced to cycle at
// without progress for longer than the limit. dump, when non-nil, is called
// only on failure to capture controller state.
func (w *Watchdog) Check(at int64, dump func() string) error {
	if w == nil || at-w.last <= w.limit {
		return nil
	}
	var d string
	if dump != nil {
		d = dump()
	}
	return &WatchdogError{At: at, LastProgress: w.last, Limit: w.limit, Dump: d}
}
