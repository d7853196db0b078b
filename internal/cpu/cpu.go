// Package cpu models the paper's processor: a generator of loads and
// stores of stream elements, issued in the computation's natural order,
// with all computation infinitely fast and all non-stream accesses hitting
// in cache (§4.1). The Walker yields the access sequence and evaluates the
// kernel's arithmetic as read values are supplied, so simulations are
// functionally checkable, not just timed.
package cpu

import (
	"fmt"
	"math"

	"rdramstream/internal/stream"
)

// Access is one processor reference to a stream element.
type Access struct {
	Stream int   // index into the kernel's Streams
	Elem   int   // element index within the stream
	Addr   int64 // word address
	Write  bool
	// Value carries the store data for a write access. It is valid only
	// once every read of the same iteration has been supplied.
	Value uint64
}

// Walker enumerates a kernel's accesses in natural order — iteration by
// iteration, streams in kernel order — and computes write values from the
// supplied read values.
//
// Protocol: call Next to obtain each access. For every read access, call
// SupplyRead with the loaded value before the iteration's first write
// access is consumed (reads may be supplied lazily, any time before the
// write is needed, which lets controllers pipeline load issue ahead of
// data arrival).
type Walker struct {
	k            *stream.Kernel
	nr           int
	n            int
	iter         int // current iteration
	pos          int // next stream within the iteration
	supplied     int // reads supplied for the current iteration
	reads        []float64
	writes       []uint64
	haveWrites   bool // writes computed for the current iteration
	pendingReads int  // reads handed out by Next but not yet supplied
}

// NewWalker validates the kernel and prepares iteration. It returns an
// error if the kernel violates the natural-order invariants.
func NewWalker(k *stream.Kernel) (*Walker, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return &Walker{
		k:     k,
		nr:    k.ReadStreams(),
		n:     k.Iterations(),
		reads: make([]float64, k.ReadStreams()),
	}, nil
}

// Kernel returns the kernel being walked.
func (w *Walker) Kernel() *stream.Kernel { return w.k }

// Remaining reports how many accesses Next will still yield.
func (w *Walker) Remaining() int {
	total := w.n * len(w.k.Streams)
	done := w.iter*len(w.k.Streams) + w.pos
	return total - done
}

// Next writes the next access in natural order into *a and reports
// whether there was one; at the end of the kernel it returns false and
// leaves *a untouched. A write access's Value is computed on demand; Next
// panics if the iteration's reads were not all supplied first, since that
// is a controller bug (a store issued before its operands arrived). The
// access is filled in place because the front end calls Next once per
// access and keeps the pending access in its own struct: returning it by
// value, then copying it there, was a visible share of an SMC run.
// rdlint:hotpath
func (w *Walker) Next(a *Access) bool {
	if w.iter >= w.n {
		return false
	}
	s := &w.k.Streams[w.pos]
	a.Stream = w.pos
	a.Elem = w.iter
	a.Addr = s.Addr(w.iter)
	a.Write = s.Mode == stream.Write
	a.Value = 0
	if a.Write {
		if !w.haveWrites {
			if w.supplied != w.nr {
				panic(fmt.Sprintf("cpu: kernel %q iteration %d: write consumed with %d/%d reads supplied",
					w.k.Name, w.iter, w.supplied, w.nr))
			}
			out := w.k.Compute(w.iter, w.reads)
			// Reuse the conversion buffer across iterations; one allocation
			// per iteration here was visible in sweep profiles.
			w.writes = w.writes[:0]
			for _, v := range out {
				w.writes = append(w.writes, math.Float64bits(v))
			}
			w.haveWrites = true
		}
		a.Value = w.writes[w.pos-w.nr]
	} else {
		w.pendingReads++
	}
	w.pos++
	if w.pos == len(w.k.Streams) {
		// Reads may still be outstanding here: a controller supplies a
		// value when the data arrives, which can be after the access was
		// handed out (read-only kernels have no write to force the
		// supply). Writes enforce supply above; SupplyRead validates the
		// rest.
		w.pos = 0
		w.iter++
		w.supplied = 0
		w.haveWrites = false
	}
	return true
}

// SupplyRead provides the loaded value for the oldest outstanding read
// access. Reads must be supplied in the order Next yielded them (our
// memory models complete loads in issue order).
func (w *Walker) SupplyRead(v uint64) {
	if w.pendingReads == 0 {
		panic("cpu: SupplyRead with no outstanding read")
	}
	w.reads[w.supplied] = math.Float64frombits(v)
	w.supplied++
	w.pendingReads--
}
