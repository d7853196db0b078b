// Package engine is the shared controller layer the paper's comparison is
// built on: one device model (internal/rdram), many access-ordering
// policies. It holds everything the controller implementations used to
// duplicate privately —
//
//   - the common Result type, built by NewResult for every controller,
//     and the bandwidth math (PercentPeak, PercentAttainable,
//     EffectiveMBps) computed in exactly one place;
//   - the line issuer (Lines), the one cacheline-transaction path: natural
//     order, the conventional controller, trace replay and the Crisp
//     workloads issue every line through it. A line is mapped once,
//     and the issuer steps the column across its packets,
//     auto-precharges the last under a closed page, fills write packets
//     from the store image with a read-merge of the words no stream
//     stores, retries each packet through Issue, and gates lines on the
//     outstanding-transaction pipeline window (Window), a ring with a
//     wrap index;
//   - the memory Cursor, whose unit is the stripe (row r of every bank:
//     Banks × PageWords consecutive addresses under both interleavings):
//     Loc maps an address by stripe arithmetic alone, and the last few
//     stripes are held to cache their pages for Peek and the walks; the
//     line issuer maps through it;
//   - the paged word image (Image) and the functional harness's walks
//     over it, which move a chunk of elements — all inside one stripe
//     and one image page — per lookup: Seed fills the device and the
//     golden image, Replay runs the kernel over the image alone (never
//     reading the device), StoreValues captures a kernel's store values
//     for the write transactions, and Mismatch compares image and device
//     in address order;
//   - the attachment point (Attach) that declares a controller's idle
//     cause to the device's always-on stall attribution and wires an
//     optional telemetry collector onto the device's packet trace;
//   - a registry of named controllers (Register/Lookup), the extension
//     point for new scheduling policies: implement Controller, register it,
//     and sim.Run/cmd/rdsim reach it by name; and
//   - a bounded worker pool (Map/MapCtx) that the scenario and figure
//     sweeps run on, with deterministic, input-ordered results.
//
// The packages internal/natorder, internal/smc, and internal/workload
// implement Controller on top of this layer; internal/fpm shares the
// bandwidth math for its fast-page-mode system.
package engine

import (
	"rdramstream/internal/rdram"
)

// Result is the common outcome every controller reports. Controllers
// build it with NewResult from the run's length, its useful words and
// the device's counters, which derives the bandwidth figures identically
// for every policy, and add any controller-specific extras.
type Result struct {
	// Cycles is the total simulated time in 400 MHz interface cycles.
	Cycles int64 `json:"Cycles"`
	// UsefulWords is the number of stream elements the processor consumed
	// or produced (iterations × streams).
	UsefulWords int64 `json:"UsefulWords"`
	// TransferredWords counts every word moved on the data bus, useful or
	// not (whole packets, whole cachelines).
	TransferredWords int64 `json:"TransferredWords"`
	// PercentPeak is the effective bandwidth as a percentage of the
	// device's peak, counting only useful words (the paper's Eq 5.1).
	PercentPeak float64 `json:"PercentPeak"`
	// PercentAttainable rescales PercentPeak by the densest packet packing
	// the access pattern permits (Figure 9's y-axis: non-unit strides can
	// use at most one word of each two-word packet).
	PercentAttainable float64 `json:"PercentAttainable"`
	// EffectiveMBps is the useful data rate in MB/s (one cycle = 2.5 ns).
	EffectiveMBps float64 `json:"EffectiveMBps"`
	// CPUStallCycles is the time the processor spent blocked on the
	// controller (empty read FIFO or full write FIFO; zero for controllers
	// without a decoupled front-end).
	CPUStallCycles int64 `json:"CPUStallCycles"`
	// Device holds the device's operation counters.
	Device rdram.Stats `json:"Device"`
	// CacheHitRate and DirtyWritebacks are populated by controllers that
	// model a real processor cache in front of the memory.
	CacheHitRate    float64 `json:"CacheHitRate"`
	DirtyWritebacks int64   `json:"DirtyWritebacks"`
}

// nsPerCycle is the Direct RDRAM interface clock period (400 MHz).
const nsPerCycle = 2.5

// PercentOfPeak is the paper's Eq 5.1: the bandwidth of `words` words
// moved in `cycles` cycles, as a percentage of a device whose peak rate is
// one word per peakCyclesPerWord cycles.
func PercentOfPeak(words, cycles int64, peakCyclesPerWord float64) float64 {
	if cycles <= 0 {
		return 0
	}
	return 100 * float64(words) * peakCyclesPerWord / float64(cycles)
}

// NewResult is the Result of a run over dev that lasted cycles and
// consumed useful words: the device's counters, every DATA packet's
// words as TransferredWords, finalized. Every controller builds its
// Result here.
func NewResult(dev *rdram.Device, cycles, useful int64) Result {
	st := dev.Stats()
	r := Result{
		Cycles:           cycles,
		UsefulWords:      useful,
		TransferredWords: st.PacketCount() * rdram.WordsPerPacket,
		Device:           st,
	}
	r.Finalize(dev.Config().Timing.CyclesPerWordPeak())
	return r
}

// Finalize derives PercentPeak, PercentAttainable, and EffectiveMBps from
// the raw counters. NewResult calls it; no bandwidth math lives anywhere
// else.
func (r *Result) Finalize(peakCyclesPerWord float64) {
	if r.Cycles <= 0 {
		return
	}
	r.PercentPeak = PercentOfPeak(r.UsefulWords, r.Cycles, peakCyclesPerWord)
	r.PercentAttainable = r.PercentPeak
	if r.TransferredWords > 0 {
		if frac := float64(r.UsefulWords) / float64(r.TransferredWords); frac < 1 {
			r.PercentAttainable = r.PercentPeak / frac
		}
	}
	r.EffectiveMBps = float64(r.UsefulWords*8) / (float64(r.Cycles) * nsPerCycle) * 1000
}
