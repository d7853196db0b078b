package workload

import (
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
	if err := k.Validate(); err != nil {
		return engine.Result{}, err
	}
	lines, err := engine.NewLines(dev, opt.Scheme, opt.LineWords, 0)
	if err != nil {
		return engine.Result{}, err
	}
	engine.Attach(dev, opt.Telemetry, telemetry.StallNoRequest)

	// Phase 1: functional execution, recording every store value so the
	// device image is exact and callers can verify the computation.
	lines.Store = engine.StoreValues(dev, lines.Mapper(), k)
	defer lines.Store.Release()

	// Phase 2: timed replay at line granularity in program order, each
	// stream filtered through its own one-line buffer, transactions
	// admitted as fast as the pipeline window allows.
	lw := int64(opt.LineWords)
	current := make([]int64, len(k.Streams))
	for i := range current {
		current[i] = -1
	}
	nr := k.ReadStreams()
	for i := 0; i < k.Iterations(); i++ {
		for s := range k.Streams {
			line := k.Streams[s].Addr(i) / lw
			if current[s] == line {
				continue
			}
			current[s] = line
			if _, err := lines.Issue(0, lines.Loc(line*lw), s >= nr, nil); err != nil {
				return engine.Result{}, err
			}
		}
	}
	return lines.Result(int64(k.Iterations()) * int64(len(k.Streams))), nil
}
