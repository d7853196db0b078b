package workload

import (
	"rdramstream/internal/addrmap"
	"rdramstream/internal/engine"
	"rdramstream/internal/rdram"
	"rdramstream/internal/telemetry"
)

// scanTxn is one transaction of scanReorder's list.
type scanTxn struct {
	loc    addrmap.Loc
	write  bool
	issued bool
}

// scanReorder is the reorder scheduler as it was before its window was
// indexed: the whole transaction list built up front, and a walk of the
// window, entry by entry, for the first row hit on every issue. It is
// the reference reorder must match, issue for issue.
func scanReorder(lines *engine.Lines, accs []TraceAccess, lw int64, window int) error {
	var txns []scanTxn
	var buf lineBuffer
	for _, a := range accs {
		if buf.next(a.Addr, lw) {
			txns = append(txns, scanTxn{loc: lines.Loc(buf.lo), write: a.Write})
		}
	}
	w := window
	if w <= 0 {
		w = 32
	}
	open := make([]int, lines.Mapper().Banks())
	for b := range open {
		open[b] = -1
	}
	head := 0
	for remaining := len(txns); remaining > 0; remaining-- {
		for head < len(txns) && txns[head].issued {
			head++
		}
		pick := head
		for i, end := head, min(head+w, len(txns)); i < end; i++ {
			if t := &txns[i]; !t.issued && open[t.loc.Bank] == t.loc.Row {
				pick = i
				break
			}
		}
		t := &txns[pick]
		t.issued = true
		if _, err := lines.Issue(0, t.loc, t.write, nil); err != nil {
			return err
		}
		open[t.loc.Bank] = t.loc.Row
	}
	return nil
}

// replayScan is a reordered ReplayTrace through scanReorder, under any
// scheme: the reference schedule of a reordered replay on an open-page
// device.
func replayScan(dev *rdram.Device, opt TraceOptions, accs []TraceAccess) (engine.Result, error) {
	lines, err := engine.NewLines(dev, opt.Scheme, opt.LineWords, opt.Outstanding)
	if err != nil {
		return engine.Result{}, err
	}
	engine.Attach(dev, nil, telemetry.StallNoRequest)
	if err := scanReorder(&lines, accs, int64(opt.LineWords), opt.Window); err != nil {
		return engine.Result{}, err
	}
	return lines.Result(int64(len(accs))), nil
}
