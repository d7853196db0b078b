package smc

import "math"

// frontEnd is the paper's processor model (§4.1): it performs the
// kernel's element accesses in natural order — iteration by iteration,
// streams in kernel order — at the matched bandwidth of one 64-bit element
// per xfer cycles, blocking whenever the MSU has not fetched the next read
// element or freed the next write slot. Computation is infinitely fast, so
// the processor's timing never depends on data values: the front end
// moves FIFO heads and clocks, captures each read value it pops, and runs
// the kernel's arithmetic when it pushes an iteration's first store. The
// reads come first in an iteration, so its inputs are always present.
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
			if s.data {
				s.in[fe.pos] = math.Float64frombits(f.values[f.popped&f.mask])
			}
			f.popped++
			if s.fprobes != nil {
				s.fprobes[fe.pos].OnDepth(done, f.issued-f.popped)
			}
		} else {
			j := fe.pos - s.nr
			f := s.writes[j]
			if s.data {
				if j == 0 {
					s.out = s.k.Compute(fe.iter, s.in)
				}
				f.values[f.pushed&f.mask] = math.Float64bits(s.out[j])
			}
			f.pushedAt[f.pushed&f.mask] = done
			f.pushed++
			if s.fprobes != nil {
				s.fprobes[fe.pos].OnDepth(done, f.pushed-f.drained)
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
