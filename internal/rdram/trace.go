package rdram

import (
	"fmt"
	"sort"
	"strings"
)

// TraceKind identifies the packet type of a trace event.
type TraceKind int

// Packet kinds emitted by the device trace hook.
const (
	TraceActivate  TraceKind = iota // ROW ACT packet
	TracePrecharge                  // ROW PRER packet
	TraceReadCol                    // COL RD packet
	TraceWriteCol                   // COL WR packet
	TraceRetire                     // COL RET packet
	TraceReadData                   // DATA packet, device -> controller
	TraceWriteData                  // DATA packet, controller -> device
)

func (k TraceKind) String() string {
	switch k {
	case TraceActivate:
		return "ACT"
	case TracePrecharge:
		return "PRER"
	case TraceReadCol:
		return "RD"
	case TraceWriteCol:
		return "WR"
	case TraceRetire:
		return "RET"
	case TraceReadData:
		return "DATA<"
	case TraceWriteData:
		return "DATA>"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// eventNames names each packet kind in telemetry event exports.
var eventNames = [...]string{
	TraceActivate:  "ACT",
	TracePrecharge: "PRER",
	TraceReadCol:   "COL RD",
	TraceWriteCol:  "COL WR",
	TraceRetire:    "RET",
	TraceReadData:  "DATA rd",
	TraceWriteData: "DATA wr",
}

// EventName is the packet's name in telemetry event exports
// (events.jsonl, trace.json).
func (k TraceKind) EventName() string { return eventNames[k] }

// bus returns which of the three shared resources the packet occupies:
// 0 = ROW command bus, 1 = COL command bus, 2 = DATA bus.
func (k TraceKind) bus() int {
	switch k {
	case TraceActivate, TracePrecharge:
		return 0
	case TraceReadCol, TraceWriteCol, TraceRetire:
		return 1
	default:
		return 2
	}
}

// TraceEvent records one packet scheduled on a device bus.
type TraceEvent struct {
	Kind       TraceKind
	Start, End int64 // [Start, End) in interface-clock cycles
	Bank       int
	Row, Col   int // -1 when not applicable
}

func (e TraceEvent) String() string {
	return fmt.Sprintf("%6d..%-6d %-5s bank=%d row=%d col=%d", e.Start, e.End, e.Kind, e.Bank, e.Row, e.Col)
}

// Recorder collects trace events, for tests and for rendering the paper's
// Figure 5/6 style timelines.
type Recorder struct {
	Events []TraceEvent
}

// Hook returns a function suitable for Device.Trace.
func (r *Recorder) Hook() func(TraceEvent) {
	return func(ev TraceEvent) { r.Events = append(r.Events, ev) }
}

// ByBus returns the recorded events for one bus (see TraceKind.bus),
// ordered by start cycle.
func (r *Recorder) ByBus(bus int) []TraceEvent {
	var out []TraceEvent
	for _, ev := range r.Events {
		if ev.Kind.bus() == bus {
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Timeline renders the recorded events as a three-lane ASCII chart
// (ROW / COL / DATA lanes), one character per `scale` cycles — the textual
// analogue of the paper's Figure 5 and Figure 6.
func (r *Recorder) Timeline(scale int) string {
	if scale <= 0 {
		scale = 1
	}
	var end int64
	for _, ev := range r.Events {
		if ev.End > end {
			end = ev.End
		}
	}
	width := int(end)/scale + 1
	lanes := [3][]byte{}
	for i := range lanes {
		lanes[i] = []byte(strings.Repeat(".", width))
	}
	mark := func(lane int, ev TraceEvent, c byte) {
		for t := ev.Start; t < ev.End; t++ {
			lanes[lane][int(t)/scale] = c
		}
	}
	for _, ev := range r.Events {
		var c byte
		switch ev.Kind {
		case TraceActivate:
			c = 'A'
		case TracePrecharge:
			c = 'P'
		case TraceReadCol:
			c = 'r'
		case TraceWriteCol:
			c = 'w'
		case TraceRetire:
			c = 't'
		case TraceReadData:
			c = 'R'
		case TraceWriteData:
			c = 'W'
		}
		mark(ev.Kind.bus(), ev, c)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ROW  |%s|\nCOL  |%s|\nDATA |%s|\n", lanes[0], lanes[1], lanes[2])
	fmt.Fprintf(&b, "scale: 1 char = %d cycle(s); A=ACT P=PRER r=COL-RD w=COL-WR t=RET R=read data W=write data\n", scale)
	return b.String()
}
