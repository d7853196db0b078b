// Package tracegen is the deterministic workload-trace generator: a
// seed-driven Program of phases, each an instance of a composable access
// pattern (strided stream, pointer-chase-like irregular, hot-row, and an
// llm-kvcache row-granularity pattern à la RoMe), lowered to the
// word-level workload.TraceAccess stream the replay path services. The
// same Program always generates the same trace — generation draws only
// from one explicitly seeded rand.Rand, in a fixed order, and never
// consults the clock, the global generator, or map iteration order — so
// a Program is as content-addressable as the trace it expands to.
package tracegen

import (
	"fmt"
	"math/rand"

	"rdramstream/internal/workload"
)

// Pattern names accepted by Phase.Pattern.
const (
	PatternStrided = "strided"
	PatternChase   = "chase"
	PatternHotRow  = "hot-row"
	PatternLLMKV   = "llm-kvcache"
)

// MaxAccesses bounds the word accesses one program (or one posted trace)
// may carry: 4Mi accesses is 64 MiB of materialized trace, comfortably
// above any figure in the repo and low enough that a hostile header
// cannot balloon the server.
const MaxAccesses = 1 << 22

// Phase is one segment of a Program: a pattern plus its shape
// parameters. Zero values take pattern-appropriate defaults (see
// withDefaults); unused parameters for a pattern are ignored but must
// still validate, so a phase serialized with defaults filled means the
// same thing everywhere.
//
// rdlint:wire — phases ride inside scenario JSON and the cache key path.
type Phase struct {
	// Pattern selects the generator: strided, chase, hot-row, llm-kvcache.
	Pattern string `json:"pattern"`
	// Accesses is the number of word accesses this phase emits (default
	// 4096).
	Accesses int `json:"accesses,omitempty"`
	// Start is the base word address of the phase's footprint.
	Start int64 `json:"start,omitempty"`
	// FootprintWords bounds the address span touched, relative to Start
	// (default 1Mi words = 8 MiB).
	FootprintWords int64 `json:"footprint_words,omitempty"`
	// StrideWords is the distance between consecutive burst starts for
	// the strided pattern (default BurstWords — a dense stream).
	StrideWords int64 `json:"stride_words,omitempty"`
	// BurstWords is the payload size: consecutive words emitted per
	// generated address (default 4 for strided/hot-row, 1 for chase).
	BurstWords int `json:"burst_words,omitempty"`
	// WriteFraction is the probability a burst is a write (default 0 —
	// pure reads; llm-kvcache ignores it: its writes are the KV appends).
	WriteFraction float64 `json:"write_fraction,omitempty"`
	// BankLocality is the fraction of hot-row bursts landing in the hot
	// set (default 0.9).
	BankLocality float64 `json:"bank_locality,omitempty"`
	// HotRows sizes the hot-row pattern's hot set in rows (default 4).
	HotRows int `json:"hot_rows,omitempty"`
	// RowWords is the row granularity for hot-row and llm-kvcache
	// (default 128 — the paper device's page).
	RowWords int `json:"row_words,omitempty"`
	// Heads is the number of interleaved KV streams for llm-kvcache
	// (default 8).
	Heads int `json:"heads,omitempty"`
	// ContextRows is each head's KV context length in rows for
	// llm-kvcache (default FootprintWords/(Heads*RowWords), at least 1).
	ContextRows int `json:"context_rows,omitempty"`
	// RowsPerStep is how many context rows each head reads per decode
	// step for llm-kvcache (default 4).
	RowsPerStep int `json:"rows_per_step,omitempty"`
}

// Program is a seeded sequence of phases — the generator DSL's root.
//
// rdlint:wire — programs ride inside scenario JSON and the cache key path.
type Program struct {
	// Name labels the program in trace headers and figures.
	Name string `json:"name,omitempty"`
	// Seed drives every random draw of every phase.
	Seed int64 `json:"seed,omitempty"`
	// Phases run in order, sharing one seeded generator.
	Phases []Phase `json:"phases"`
}

// withDefaults fills a phase's zero parameters with its pattern's
// defaults. Called by Validate and Generate so a sparse phase and its
// fully spelled-out form generate identical traces.
func (ph Phase) withDefaults() Phase {
	if ph.Accesses == 0 {
		ph.Accesses = 4096
	}
	if ph.FootprintWords == 0 {
		ph.FootprintWords = 1 << 20
	}
	if ph.BurstWords == 0 {
		if ph.Pattern == PatternChase {
			ph.BurstWords = 1
		} else {
			ph.BurstWords = 4
		}
	}
	if ph.StrideWords == 0 {
		ph.StrideWords = int64(ph.BurstWords)
	}
	if ph.BankLocality == 0 {
		ph.BankLocality = 0.9
	}
	if ph.HotRows == 0 {
		ph.HotRows = 4
	}
	if ph.RowWords == 0 {
		ph.RowWords = 128
	}
	if ph.Heads == 0 {
		ph.Heads = 8
	}
	if ph.ContextRows == 0 {
		ctx := ph.FootprintWords / (int64(ph.Heads) * int64(ph.RowWords))
		if ctx < 1 {
			ctx = 1
		}
		if ctx > 1<<20 {
			ctx = 1 << 20
		}
		ph.ContextRows = int(ctx)
	}
	if ph.RowsPerStep == 0 {
		ph.RowsPerStep = 4
	}
	return ph
}

// Validate checks one phase after default filling.
func (ph Phase) validate() error {
	ph = ph.withDefaults()
	switch ph.Pattern {
	case PatternStrided, PatternChase, PatternHotRow, PatternLLMKV:
	default:
		return fmt.Errorf("tracegen: unknown pattern %q (have %s, %s, %s, %s)",
			ph.Pattern, PatternStrided, PatternChase, PatternHotRow, PatternLLMKV)
	}
	if ph.Accesses <= 0 || ph.Accesses > MaxAccesses {
		return fmt.Errorf("tracegen: phase accesses %d out of (0, %d]", ph.Accesses, MaxAccesses)
	}
	if ph.Start < 0 {
		return fmt.Errorf("tracegen: negative start %d", ph.Start)
	}
	if ph.FootprintWords <= 0 {
		return fmt.Errorf("tracegen: footprint_words must be positive, got %d", ph.FootprintWords)
	}
	if ph.StrideWords <= 0 {
		return fmt.Errorf("tracegen: stride_words must be positive, got %d", ph.StrideWords)
	}
	if ph.BurstWords <= 0 || int64(ph.BurstWords) > ph.FootprintWords {
		return fmt.Errorf("tracegen: burst_words %d out of (0, footprint %d]", ph.BurstWords, ph.FootprintWords)
	}
	if ph.WriteFraction < 0 || ph.WriteFraction > 1 {
		return fmt.Errorf("tracegen: write_fraction %v out of [0,1]", ph.WriteFraction)
	}
	if ph.BankLocality < 0 || ph.BankLocality > 1 {
		return fmt.Errorf("tracegen: bank_locality %v out of [0,1]", ph.BankLocality)
	}
	if ph.HotRows <= 0 {
		return fmt.Errorf("tracegen: hot_rows must be positive, got %d", ph.HotRows)
	}
	if ph.RowWords <= 0 || int64(ph.RowWords) > ph.FootprintWords {
		return fmt.Errorf("tracegen: row_words %d out of (0, footprint %d]", ph.RowWords, ph.FootprintWords)
	}
	if ph.Heads <= 0 {
		return fmt.Errorf("tracegen: heads must be positive, got %d", ph.Heads)
	}
	if ph.ContextRows <= 0 {
		return fmt.Errorf("tracegen: context_rows must be positive, got %d", ph.ContextRows)
	}
	if ph.RowsPerStep <= 0 {
		return fmt.Errorf("tracegen: rows_per_step must be positive, got %d", ph.RowsPerStep)
	}
	if ph.Pattern == PatternLLMKV {
		span := int64(ph.Heads) * int64(ph.ContextRows) * int64(ph.RowWords)
		if span > ph.FootprintWords {
			return fmt.Errorf("tracegen: llm-kvcache KV layout %d words (heads %d × context_rows %d × row_words %d) exceeds footprint %d",
				span, ph.Heads, ph.ContextRows, ph.RowWords, ph.FootprintWords)
		}
	}
	return nil
}

// Validate checks the whole program: at least one phase, every phase
// well-formed, and the total access count within MaxAccesses.
func (p *Program) Validate() error {
	if p == nil {
		return fmt.Errorf("tracegen: nil program")
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("tracegen: program has no phases")
	}
	total := 0
	for i, ph := range p.Phases {
		if err := ph.validate(); err != nil {
			return fmt.Errorf("tracegen: phase %d: %w", i, err)
		}
		total += ph.withDefaults().Accesses
	}
	if total > MaxAccesses {
		return fmt.Errorf("tracegen: program totals %d accesses, limit %d", total, MaxAccesses)
	}
	return nil
}

// Generate expands the program into its word-level access trace. The
// draw discipline is fixed — one generator seeded from Seed, phases in
// order, a defined number of draws per emitted burst — so the output is
// a pure function of the program.
func (p *Program) Generate() ([]workload.TraceAccess, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	total := 0
	for _, ph := range p.Phases {
		total += ph.withDefaults().Accesses
	}
	out := make([]workload.TraceAccess, 0, total)
	rng := rand.New(rand.NewSource(p.Seed + 1))
	for _, ph := range p.Phases {
		out = genPhase(rng, ph.withDefaults(), out)
	}
	return out, nil
}

func genPhase(rng *rand.Rand, ph Phase, out []workload.TraceAccess) []workload.TraceAccess {
	switch ph.Pattern {
	case PatternStrided:
		return genStrided(rng, ph, out)
	case PatternChase:
		return genChase(rng, ph, out)
	case PatternHotRow:
		return genHotRow(rng, ph, out)
	default: // PatternLLMKV; Validate rejected everything else
		return genLLMKV(rng, ph, out)
	}
}

// emitBurst appends up to burst consecutive words at pos (wrapping
// within the footprint), stopping at the phase's remaining budget, and
// returns the extended slice. A burst is no longer than the footprint
// (validate), so it wraps at most once: one modulo per burst, then a
// compare per word.
func emitBurst(ph *Phase, out []workload.TraceAccess, pos int64, burst int, write bool, remain int) []workload.TraceAccess {
	if burst > remain {
		burst = remain
	}
	off := pos % ph.FootprintWords
	for w := 0; w < burst; w++ {
		out = append(out, workload.TraceAccess{Addr: ph.Start + off, Write: write})
		if off++; off == ph.FootprintWords {
			off = 0
		}
	}
	return out
}

// genStrided is the classic stream: burst starts advance by StrideWords,
// wrapping within the footprint. One write draw per burst.
func genStrided(rng *rand.Rand, ph Phase, out []workload.TraceAccess) []workload.TraceAccess {
	pos := int64(0)
	for emitted := 0; emitted < ph.Accesses; {
		write := rng.Float64() < ph.WriteFraction
		out = emitBurst(&ph, out, pos, ph.BurstWords, write, ph.Accesses-emitted)
		emitted += min(ph.BurstWords, ph.Accesses-emitted)
		pos = (pos + ph.StrideWords) % ph.FootprintWords
	}
	return out
}

// genChase is the pointer-chase-like irregular pattern: each burst
// lands at a seeded random jump from nowhere predictable — the
// dependent-load stream of a linked traversal, as seen by the memory
// system. Two draws per burst: the jump, then the write decision.
func genChase(rng *rand.Rand, ph Phase, out []workload.TraceAccess) []workload.TraceAccess {
	for emitted := 0; emitted < ph.Accesses; {
		pos := rng.Int63n(ph.FootprintWords)
		write := rng.Float64() < ph.WriteFraction
		out = emitBurst(&ph, out, pos, ph.BurstWords, write, ph.Accesses-emitted)
		emitted += min(ph.BurstWords, ph.Accesses-emitted)
	}
	return out
}

// genHotRow skews BankLocality of the bursts onto a hot set of HotRows
// rows at the front of the footprint, the rest uniform. Three draws per
// burst: locality, position, write.
func genHotRow(rng *rand.Rand, ph Phase, out []workload.TraceAccess) []workload.TraceAccess {
	hotSpan := int64(ph.HotRows) * int64(ph.RowWords)
	if hotSpan > ph.FootprintWords {
		hotSpan = ph.FootprintWords
	}
	for emitted := 0; emitted < ph.Accesses; {
		var pos int64
		if rng.Float64() < ph.BankLocality {
			pos = rng.Int63n(hotSpan)
		} else {
			pos = rng.Int63n(ph.FootprintWords)
		}
		write := rng.Float64() < ph.WriteFraction
		out = emitBurst(&ph, out, pos, ph.BurstWords, write, ph.Accesses-emitted)
		emitted += min(ph.BurstWords, ph.Accesses-emitted)
	}
	return out
}

// genLLMKV models autoregressive LLM decode over a paged KV cache (the
// RoMe shape): Heads independent KV regions of ContextRows rows, each
// row RowWords words. The context starts full (the prompt prefilled
// it): every decode step, every head first overwrites the ring's oldest
// row with its new KV entry (a row-granularity write), then reads
// RowsPerStep rows sampled from the whole context. The reads are emitted
// interleaved across heads at BurstWords granularity — the order the
// attention computation issues them — so the natural-order stream
// ping-pongs between rows while a reordering front end can regroup each
// row's chunks. Rows wrap as a ring once the context fills. Draw order
// is fixed: per step, RowsPerStep draws per head, heads in order.
func genLLMKV(rng *rand.Rand, ph Phase, out []workload.TraceAccess) []workload.TraceAccess {
	rowW := int64(ph.RowWords)
	ctx := int64(ph.ContextRows)
	burst := int64(ph.BurstWords)
	chunks := (rowW + burst - 1) / burst
	emitted := 0
	emit := func(base, n int64, write bool) {
		for w := int64(0); w < n && emitted < ph.Accesses; w++ {
			out = append(out, workload.TraceAccess{Addr: base + w, Write: write})
			emitted++
		}
	}
	headBase := func(h int) int64 { return ph.Start + int64(h)*ctx*rowW }
	rows := make([][]int64, ph.Heads)
	for h := range rows {
		rows[h] = make([]int64, ph.RowsPerStep)
	}
	for step := int64(0); emitted < ph.Accesses; step++ {
		appended := step % ctx
		for h := 0; h < ph.Heads && emitted < ph.Accesses; h++ {
			emit(headBase(h)+appended*rowW, rowW, true)
		}
		for h := range rows {
			for r := range rows[h] {
				rows[h][r] = rng.Int63n(ctx)
			}
		}
		for c := int64(0); c < int64(ph.RowsPerStep)*chunks && emitted < ph.Accesses; c++ {
			row, chunk := c/chunks, c%chunks
			off := chunk * burst
			n := min(burst, rowW-off)
			for h := 0; h < ph.Heads && emitted < ph.Accesses; h++ {
				emit(headBase(h)+rows[h][row]*rowW+off, n, false)
			}
		}
	}
	return out
}
