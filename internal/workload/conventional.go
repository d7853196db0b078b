package workload

import (
	"fmt"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/engine"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
)

// conventional registers this package's pipelined controller as a
// kernel-level policy: cacheline transactions in program order, pipelined
// to the outstanding window, with no inter-access dependence gating — the
// "many independent masters" behaviour of Crisp's experiments applied to
// the paper's stream kernels. Comparing it against "natural-order" (same
// transactions, dependence-gated) isolates how much of the baseline's loss
// is the in-order dependence wait rather than the access pattern.
type conventional struct{}

func init() { engine.Register(conventional{}) }

func (conventional) Name() string { return "conventional" }

func (conventional) Run(dev *rdram.Device, k *stream.Kernel, opt engine.Options) (engine.Result, error) {
	if opt.LineWords <= 0 || opt.LineWords%rdram.WordsPerPacket != 0 {
		return engine.Result{}, fmt.Errorf("workload: LineWords must be a positive multiple of %d, got %d", rdram.WordsPerPacket, opt.LineWords)
	}
	if err := k.Validate(); err != nil {
		return engine.Result{}, err
	}
	outstanding := opt.Outstanding
	if outstanding <= 0 {
		outstanding = rdram.MaxOutstanding
	}
	if outstanding > rdram.MaxOutstanding {
		return engine.Result{}, fmt.Errorf("workload: Outstanding %d exceeds device limit %d", outstanding, rdram.MaxOutstanding)
	}
	mapper, err := addrmap.New(opt.Scheme, dev.Config().Geometry, opt.LineWords)
	if err != nil {
		return engine.Result{}, err
	}
	engine.Attach(dev, opt.Telemetry, telemetry.StallNoRequest)

	// Phase 1: functional execution, recording every store value so the
	// device image is exact and callers can verify the computation.
	storeVals := engine.StoreValues(dev, mapper, k)
	defer storeVals.Release()

	// Phase 2: timed replay at line granularity in program order, each
	// stream filtered through its own one-line buffer, transactions
	// admitted as fast as the pipeline window allows.
	autoPre := opt.Scheme == addrmap.CLI
	window := engine.NewWindow(outstanding)
	lw := int64(opt.LineWords)
	packets := opt.LineWords / rdram.WordsPerPacket
	lines := make([]int64, len(k.Streams))
	for i := range lines {
		lines[i] = -1
	}
	nr := k.ReadStreams()
	mem := engine.NewCursor(dev, mapper)
	doLine := func(line int64, write bool) error {
		at := window.Admit(0)
		base := line * lw
		var complete int64
		var res rdram.Result
		for p := 0; p < packets; p++ {
			addr := base + int64(p*rdram.WordsPerPacket)
			loc := mem.Loc(addr)
			req := rdram.Request{
				Bank: loc.Bank, Row: loc.Row, Col: loc.Col,
				Write:         write,
				AutoPrecharge: autoPre && p == packets-1,
			}
			if write {
				for w := range req.Data {
					a := addr + int64(w)
					if v, ok := storeVals.Get(a); ok {
						req.Data[w] = v
					} else {
						req.Data[w] = mem.Peek(a)
					}
				}
			}
			if err := engine.Issue(dev, at, &req, &res); err != nil {
				return err
			}
			complete = res.DataEnd
		}
		window.Complete(complete)
		return nil
	}
	for i := 0; i < k.Iterations(); i++ {
		for s := range k.Streams {
			line := k.Streams[s].Addr(i) / lw
			if lines[s] == line {
				continue
			}
			lines[s] = line
			if err := doLine(line, s >= nr); err != nil {
				return engine.Result{}, err
			}
		}
	}

	st := dev.Stats()
	res := engine.Result{
		Cycles:           st.LastDataEnd,
		UsefulWords:      int64(k.Iterations()) * int64(len(k.Streams)),
		TransferredWords: st.PacketCount() * rdram.WordsPerPacket,
		Device:           st,
	}
	res.Finalize(dev.Config().Timing.CyclesPerWordPeak())
	return res, nil
}
