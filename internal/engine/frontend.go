package engine

import (
	"rdramstream/internal/cpu"
	"rdramstream/internal/stream"
)

// Unscheduled marks an event with no scheduled time yet: a FIFO head the
// controller has not fetched, a write slot no drain has freed.
const Unscheduled = int64(-1)

// Ports is the controller side the CPU front-end pushes against: per-stream
// availability of read data and write slots, and the transfer of elements
// once an access completes. Streams are indexed as in the kernel (reads
// first, then writes).
type Ports interface {
	// ReadAvail returns the cycle the next element of read stream i is (or
	// will be) available, or Unscheduled if the controller has not
	// scheduled it yet.
	ReadAvail(i int) int64
	// WriteFree returns the earliest cycle a slot frees for write stream i,
	// or Unscheduled if the controller has not scheduled the freeing drain.
	WriteFree(i int) int64
	// PopRead consumes the head element of read stream i, completing at
	// done, and returns its value.
	PopRead(i int, done int64) uint64
	// PushWrite delivers a store of value v to write stream i at done.
	PushWrite(i int, v uint64, done int64)
}

// FrontEnd is the paper's processor model (§4.1), shared by every
// decoupled controller: it walks the kernel's accesses in natural order at
// the matched bandwidth of one 64-bit element per xfer cycles, with all
// computation infinitely fast, blocking whenever the controller has not
// made the next element's data or slot available.
type FrontEnd struct {
	walker *cpu.Walker
	xfer   int64
	// pending is held by value: taking the address of the walker's result
	// forced one heap allocation per access (a third of the hot loop's
	// allocations), and the access is plain data.
	pending    cpu.Access
	hasPending bool
	time       int64
	stall      int64
	done       bool
}

// NewFrontEnd validates the kernel and builds a front-end that completes
// one element access per xfer cycles.
func NewFrontEnd(k *stream.Kernel, xfer int64) (*FrontEnd, error) {
	w, err := cpu.NewWalker(k)
	if err != nil {
		return nil, err
	}
	return &FrontEnd{walker: w, xfer: xfer}, nil
}

// Time is the completion time of the last processed access.
func (fe *FrontEnd) Time() int64 { return fe.time }

// StallCycles is the total time the processor spent blocked on the
// controller (empty read FIFO, full write FIFO).
func (fe *FrontEnd) StallCycles() int64 { return fe.stall }

// Done reports whether every access of the kernel has been processed.
func (fe *FrontEnd) Done() bool { return fe.done }

// Advance processes the processor's natural-order accesses whose
// completion does not exceed limit, stopping early when the controller has
// not scheduled the data or slot the next access needs.
// rdlint:hotpath
func (fe *FrontEnd) Advance(limit int64, p Ports) {
	for {
		if !fe.hasPending {
			if !fe.walker.Next(&fe.pending) {
				fe.done = true
				return
			}
			fe.hasPending = true
		}
		a := &fe.pending
		var wait int64
		if a.Write {
			wait = p.WriteFree(a.Stream)
		} else {
			wait = p.ReadAvail(a.Stream)
		}
		if wait == Unscheduled {
			return // blocked until the controller schedules it
		}
		start := max(fe.time, wait)
		done := start + fe.xfer
		if done > limit {
			return
		}
		fe.stall += start - fe.time
		fe.time = done
		if a.Write {
			p.PushWrite(a.Stream, a.Value, done)
		} else {
			fe.walker.SupplyRead(p.PopRead(a.Stream, done))
		}
		fe.hasPending = false
	}
}

// NextEvent returns the completion time of the processor's next access, if
// it is schedulable, or Unscheduled if the CPU is waiting on the
// controller (or finished).
// rdlint:hotpath
func (fe *FrontEnd) NextEvent(p Ports) int64 {
	if !fe.hasPending {
		// Advance always leaves a pending access unless the walk is done.
		return Unscheduled
	}
	a := &fe.pending
	var wait int64
	if a.Write {
		wait = p.WriteFree(a.Stream)
	} else {
		wait = p.ReadAvail(a.Stream)
	}
	if wait == Unscheduled {
		return Unscheduled
	}
	return max(fe.time, wait) + fe.xfer
}
