package engine

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rdramstream/internal/rdram"
)

// scriptedInjector rejects the first rejects presentations, then accepts
// everything with no jitter.
type scriptedInjector struct {
	rejects int
	seen    int
}

func (s *scriptedInjector) OnAccess(at int64, bank int, write bool) rdram.AccessFault {
	s.seen++
	if s.seen <= s.rejects {
		return rdram.AccessFault{Reject: true}
	}
	return rdram.AccessFault{}
}

func (s *scriptedInjector) RefreshGap(base int64) int64 { return base }

func TestIssueCleanDeviceMatchesDo(t *testing.T) {
	mk := func() *rdram.Device { return rdram.NewDevice(rdram.DefaultConfig()) }
	a, b := mk(), mk()
	req := rdram.Request{Bank: 2, Row: 5, Col: 7}
	want := a.Do(100, req)
	var got rdram.Result
	err := Issue(b, 100, &req, &got)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Issue = %+v, Do = %+v", got, want)
	}
}

func TestIssueRetriesWithBackoff(t *testing.T) {
	dev := rdram.NewDevice(rdram.DefaultConfig())
	dev.Faults = &scriptedInjector{rejects: 3}
	var res rdram.Result
	err := Issue(dev, 0, &rdram.Request{Bank: 0, Row: 0, Col: 0}, &res)
	if err != nil {
		t.Fatal(err)
	}
	// Three rejections back off t_PACK + 2·t_PACK + 4·t_PACK = 28 cycles,
	// so the accepted presentation happens at cycle 28.
	tp := int64(dev.Config().Timing.TPack)
	wantAt := tp + 2*tp + 4*tp
	if res.ColIssue < wantAt {
		t.Errorf("accepted presentation at %d, want >= %d after backoff", res.ColIssue, wantAt)
	}
	if dev.Stats().Rejections != 3 {
		t.Errorf("Rejections = %d, want 3", dev.Stats().Rejections)
	}
}

func TestIssueGivesUp(t *testing.T) {
	dev := rdram.NewDevice(rdram.DefaultConfig())
	dev.Faults = &scriptedInjector{rejects: 1 << 30}
	var res rdram.Result
	err := Issue(dev, 50, &rdram.Request{Bank: 3, Row: 1, Col: 2, Write: true}, &res)
	var re *RejectError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RejectError", err)
	}
	if re.Attempts != MaxIssueAttempts || re.Bank != 3 || !re.Write || re.At != 50 {
		t.Errorf("RejectError = %+v", re)
	}
	if !strings.Contains(re.Error(), "bank=3") {
		t.Errorf("error text lacks bank: %q", re.Error())
	}
}

func TestWatchdog(t *testing.T) {
	var nilWD *Watchdog
	nilWD.Progress(5)
	if err := nilWD.Check(1<<40, nil); err != nil {
		t.Fatalf("nil watchdog fired: %v", err)
	}
	w := NewWatchdog(100)
	w.Progress(50)
	if err := w.Check(150, nil); err != nil {
		t.Fatalf("fired within limit: %v", err)
	}
	dumped := false
	err := w.Check(151, func() string { dumped = true; return "fifo[0]: empty" })
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WatchdogError", err)
	}
	if !dumped || we.Dump != "fifo[0]: empty" {
		t.Errorf("dump not captured: %+v", we)
	}
	if we.LastProgress != 50 || we.At != 151 || we.Limit != 100 {
		t.Errorf("WatchdogError = %+v", we)
	}
	if !strings.Contains(we.Error(), "fifo[0]: empty") {
		t.Errorf("error text lacks dump: %q", we.Error())
	}
	if NewWatchdog(0).limit != DefaultWatchdogLimit {
		t.Error("zero limit did not select default")
	}
}

// TestMapPanicIsolated: a panicking job becomes a *PanicError naming its
// index; the pool survives at every worker count.
func TestMapPanicIsolated(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		_, err := Map(workers, 12, func(i int) (int, error) {
			if i == 5 {
				panic("boom")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 5 || pe.Value != "boom" || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError = index %d value %v stack %d bytes",
				workers, pe.Index, pe.Value, len(pe.Stack))
		}
	}
}

// TestMapLowestFailureWins: with both a panic and a plain error in flight,
// the lowest failing index is reported at every worker count, even when the
// higher-index failure completes first.
func TestMapLowestFailureWins(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		_, err := Map(workers, 16, func(i int) (int, error) {
			switch i {
			case 4:
				time.Sleep(2 * time.Millisecond) // lose the race on purpose
				panic(i)
			case 9:
				return 0, errors.New("late failure")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != 4 {
			t.Errorf("workers=%d: err = %v, want panic at index 4", workers, err)
		}
	}
}

// TestMapEarlyCancel: after the first failure, still-queued jobs are
// skipped rather than run to completion.
func TestMapEarlyCancel(t *testing.T) {
	const n = 1000
	var executed atomic.Int64
	_, err := Map(4, n, func(i int) (int, error) {
		executed.Add(1)
		if i == 0 {
			return 0, errors.New("fail fast")
		}
		time.Sleep(200 * time.Microsecond)
		return i, nil
	})
	if err == nil || err.Error() != "fail fast" {
		t.Fatalf("err = %v", err)
	}
	if got := executed.Load(); got > n/2 {
		t.Errorf("%d of %d jobs executed after early failure; cancellation not effective", got, n)
	}
}
