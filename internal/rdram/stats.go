package rdram

import (
	"fmt"

	"rdramstream/internal/telemetry"
)

// Stats counts device operations, data-bus occupancy and the stall-cause
// attribution of every idle DATA-bus cycle. All counters are monotone over
// a simulation. It holds only scalars and fixed arrays, so Stats values
// (and the outcomes carrying them) compare with ==.
type Stats struct {
	Activates     int64 `json:"Activates"`
	Precharges    int64 `json:"Precharges"`
	Reads         int64 `json:"Reads"`  // DATA packets read
	Writes        int64 `json:"Writes"` // DATA packets written
	PageHits      int64 `json:"PageHits"`
	PageMisses    int64 `json:"PageMisses"`
	PageConflicts int64 `json:"PageConflicts"` // misses that first had to close another row
	Retires       int64 `json:"Retires"`       // COL RET packets inserted before reads
	Refreshes     int64 `json:"Refreshes"`
	DataBusBusy   int64 `json:"DataBusBusy"`  // cycles the DATA bus carried packets
	LastDataEnd   int64 `json:"LastDataEnd"`  // cycle after the final DATA packet
	Rejections    int64 `json:"Rejections"`   // accesses refused by the fault injector
	JitterCycles  int64 `json:"JitterCycles"` // extra latency cycles added by fault injection
	// Stalls charges each idle DATA-bus cycle to one cause, indexed by
	// telemetry.StallCause (the order of telemetry.StallCauses()). Over a
	// run the entries sum to Cycles − DataBusBusy.
	Stalls [telemetry.NumStallCauses]int64 `json:"Stalls"`
}

// PacketCount is the total number of DATA packets transferred.
func (s Stats) PacketCount() int64 { return s.Reads + s.Writes }

// HitRate is the fraction of column accesses that hit an open page.
func (s Stats) HitRate() float64 {
	n := s.PageHits + s.PageMisses
	if n == 0 {
		return 0
	}
	return float64(s.PageHits) / float64(n)
}

// BusUtilization is the fraction of the elapsed simulation (up to the last
// data packet) during which the DATA bus was busy — the effective fraction
// of peak bandwidth actually delivered, if every transferred word was
// useful.
func (s Stats) BusUtilization() float64 {
	if s.LastDataEnd == 0 {
		return 0
	}
	return float64(s.DataBusBusy) / float64(s.LastDataEnd)
}

func (s Stats) String() string {
	str := fmt.Sprintf("act=%d pre=%d rd=%d wr=%d hit=%d miss=%d conflict=%d ret=%d refresh=%d busBusy=%d lastData=%d",
		s.Activates, s.Precharges, s.Reads, s.Writes, s.PageHits, s.PageMisses, s.PageConflicts, s.Retires, s.Refreshes, s.DataBusBusy, s.LastDataEnd)
	if s.Rejections != 0 || s.JitterCycles != 0 {
		str += fmt.Sprintf(" reject=%d jitter=%d", s.Rejections, s.JitterCycles)
	}
	return str
}
