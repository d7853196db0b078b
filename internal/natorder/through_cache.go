package natorder

import (
	"rdramstream/internal/cache"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
)

// runThroughCache is the timing phase with a real set-associative cache in
// front of the memory: every element access consults the cache; misses
// fetch the line (write-allocate, loads and stores alike), conflict
// evictions of dirty lines write them back, and the computation ends with
// a dirty-line sweep. This models the natural-order configuration with the
// effects the paper's ideal-cache bounds exclude.
func (s *sim) runThroughCache(k *stream.Kernel, cc *cache.Cache) error {
	nr := k.ReadStreams()
	packets := int(s.lw) / rdram.WordsPerPacket

	// Linefill-forwarding availability of resident lines: line index ->
	// DataStart of each of its packets. Evictions drop the entry.
	ready := make(map[int64][]int64)

	var prevDep int64
	for i := 0; i < k.Iterations(); i++ {
		var iterDep int64
		for si, st := range k.Streams {
			addr := st.Addr(i)
			line := addr / s.lw
			write := st.Mode == stream.Write
			gate := prevDep
			if write {
				gate = iterDep
			}
			res := cc.Access(line, write)
			if !res.Hit {
				var starts []int64 // recycle the victim's availability buffer
				if res.Evicted >= 0 {
					if res.EvictedDirty {
						// Victim writeback precedes the fill on the bus.
						if err := s.store(res.Evicted, max(s.cursor, gate)); err != nil {
							return err
						}
					}
					starts = ready[res.Evicted]
					delete(ready, res.Evicted)
				}
				if starts == nil {
					starts = make([]int64, packets)
				}
				if err := s.fetch(line, max(s.cursor, gate), starts); err != nil {
					return err
				}
				ready[line] = starts
			}
			if si < nr {
				if starts, ok := ready[line]; ok {
					pkt := int(addr%s.lw) / rdram.WordsPerPacket
					if t := starts[pkt]; t > iterDep {
						iterDep = t
					}
				}
			}
		}
		prevDep = iterDep
	}
	// Final writeback sweep of everything still dirty.
	for _, line := range cc.FlushDirty() {
		if err := s.store(line, s.cursor); err != nil {
			return err
		}
	}
	return nil
}
