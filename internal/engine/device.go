package engine

import (
	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
)

// peek reads one word from device storage through the mapper without
// advancing time: StoreValues' read of a word the kernel has not stored.
func peek(dev *rdram.Device, m *addrmap.Mapper, addr int64) uint64 {
	loc := m.Map(addr)
	return dev.PeekWord(loc.Bank, loc.Row, loc.Col, loc.Word)
}

// StoreValues functionally executes the kernel and returns an image of
// every word it stores — the data a timing controller transmits on its
// write transactions. Loads read the image first, so loop-carried values
// are seen; unstored addresses read current device contents. A
// timing-only device stores no data, so there it returns an empty image
// without replaying the kernel: timing never depends on data values. The
// caller releases the image when its run returns.
func StoreValues(dev *rdram.Device, m *addrmap.Mapper, k *stream.Kernel) *Image {
	img := imagePool.Get().(*Image)
	if dev.TimingOnly() {
		img.Reset(nil)
		return img
	}
	img.Reset(k)
	k.Replay(
		func(addr int64) uint64 {
			if v, ok := img.Get(addr); ok {
				return v
			}
			return peek(dev, m, addr)
		},
		img.Set,
	)
	return img
}

// Attach wires a telemetry collector to the device and declares the
// controller's default idle cause, returning the controller probe (nil
// collector returns nil, and the nil-safe probes make that free). Any
// controller built on the engine gets device counters and stall
// attribution through this one call.
func Attach(dev *rdram.Device, col *telemetry.Collector, idle telemetry.StallCause) *telemetry.ControllerProbe {
	if col == nil {
		return nil
	}
	dev.Telemetry = col.Device
	col.Device.SetIdleCause(idle)
	return col.Controller
}

// Window models the device's bounded pipeline of outstanding transactions
// (the Direct RDRAM supports four): a transaction may not be presented
// before the one `limit` positions back has completed. Completion times
// live in a fixed ring of limit entries — only the last limit matter, and
// the append-forever slice this replaced grew with the run length.
type Window struct {
	done []int64 // ring: done[n%limit] completed transaction n-limit
	n    int     // transactions completed so far
}

// NewWindow builds a window admitting up to limit concurrent transactions;
// limit must be positive.
func NewWindow(limit int) *Window {
	if limit <= 0 {
		panic("engine: Window limit must be positive")
	}
	return &Window{done: make([]int64, limit)}
}

// Admit returns the earliest time a new transaction may be presented, no
// earlier than at.
func (w *Window) Admit(at int64) int64 {
	if w.n >= len(w.done) {
		at = max(at, w.done[w.n%len(w.done)])
	}
	return at
}

// Complete records an admitted transaction's completion time. Calls must
// be in admission order.
func (w *Window) Complete(t int64) {
	w.done[w.n%len(w.done)] = t
	w.n++
}
