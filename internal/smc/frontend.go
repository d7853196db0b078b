package smc

import (
	"fmt"
	"math"
)

// frontEnd is the paper's processor model (§4.1): it performs the
// kernel's element accesses in natural order — iteration by iteration,
// streams in kernel order — at the matched bandwidth of one 64-bit element
// per xfer cycles, blocking whenever the MSU has not fetched the next read
// element or freed the next write slot. Computation is infinitely fast, so
// the processor's timing never depends on data values: the front end
// moves FIFO heads and clocks, and the kernel's arithmetic runs when a
// write packet drains (sim.computeThrough).
type frontEnd struct {
	xfer  int64 // cycles per element access, t_PACK / WordsPerPacket
	iter  int   // iteration of the next access
	pos   int   // stream of the next access within its iteration
	time  int64 // completion time of the last access
	stall int64 // time spent blocked on the MSU
}

// feDone reports whether every access of the kernel has been performed.
func (s *sim) feDone() bool { return s.fe.iter >= s.iters }

// feWait returns when the next access's data or slot is available, or
// unscheduled when the MSU has not scheduled it yet.
// rdlint:hotpath
func (s *sim) feWait() int64 {
	if s.fe.pos < s.nr {
		return s.reads[s.fe.pos].headAvail()
	}
	return s.writes[s.fe.pos-s.nr].slotFreeAt()
}

// feAdvance performs the processor's accesses whose completion does not
// exceed limit, stopping early at one whose data or slot the MSU has not
// scheduled.
// rdlint:hotpath
func (s *sim) feAdvance(limit int64) {
	fe := &s.fe
	for fe.iter < s.iters {
		wait := s.feWait()
		if wait == unscheduled {
			return
		}
		start := max(fe.time, wait)
		done := start + fe.xfer
		if done > limit {
			return
		}
		fe.stall += start - fe.time
		fe.time = done
		if fe.pos < s.nr {
			f := s.reads[fe.pos]
			f.popped++
			if s.fprobes != nil {
				s.fprobes[fe.pos].OnDepth(done, f.issued-f.popped)
			}
		} else {
			f := s.writes[fe.pos-s.nr]
			f.pushedAt = append(f.pushedAt, done)
			if s.fprobes != nil {
				s.fprobes[fe.pos].OnDepth(done, len(f.pushedAt)-len(f.drainAt))
			}
		}
		if fe.pos++; fe.pos == s.nstreams {
			fe.pos = 0
			fe.iter++
		}
	}
}

// feNextEvent returns the completion time of the processor's next access,
// or unscheduled if it waits on the MSU or the kernel is done.
// rdlint:hotpath
func (s *sim) feNextEvent() int64 {
	if s.feDone() {
		return unscheduled
	}
	wait := s.feWait()
	if wait == unscheduled {
		return unscheduled
	}
	return max(s.fe.time, wait) + s.fe.xfer
}

// computeThrough runs the kernel's arithmetic for every iteration before
// ehi not yet computed, appending each write stream's value to its FIFO.
// It reads the values the read FIFOs fetched from the device, so a store
// sees exactly the loads the processor performed. A store drains only
// after the processor pushed it, and the processor pushes an iteration's
// stores only after popping its loads, so every read must have been
// fetched; computeThrough panics otherwise, since that is an MSU bug.
// rdlint:hotpath
func (s *sim) computeThrough(ehi int) {
	for ; s.computed < ehi; s.computed++ {
		i := s.computed
		for r, f := range s.reads {
			if i >= len(f.values) {
				panic(fmt.Sprintf("smc: kernel %q iteration %d: store drained before read stream %d was fetched", s.k.Name, i, r))
			}
			s.in[r] = math.Float64frombits(f.values[i])
		}
		for j, v := range s.k.Compute(i, s.in) {
			f := s.writes[j]
			f.values = append(f.values, math.Float64bits(v))
		}
	}
}
