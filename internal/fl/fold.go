package fl

import (
	"errors"
	"fmt"
	"math"

	"github.com/cip-fl/cip/internal/fl/robust"
)

// Streaming aggregation. The batch Aggregate materializes every update
// before folding; at large rosters that is O(roster × params) coordinator
// memory. A Fold consumes updates one at a time in a caller-fixed order
// and keeps only the running weighted sums — O(params) total — and is
// bit-identical to Aggregate by construction: both perform the same
// per-coordinate `acc += w·v` sequence followed by one divide, so folding
// updates in roster order reproduces the batch result exactly (float
// addition is order-sensitive, which is why the ORDER is part of the
// contract, not the arrival schedule).
//
// A Fold can also stop before the divide and emit its raw weighted sums as
// a Partial — the unit of hierarchical aggregation. A leaf coordinator
// folds its client shard and forwards one Partial; the root folds partials
// (FoldPartial) exactly as if it had folded every underlying update,
// because weighted sums compose associatively (up to float reassociation
// across the leaf boundary).

// Partial is one aggregation subtree's pre-division contribution: the
// weighted parameter sums of the updates it folded, the total weight, and
// the contributing client count. It is what a leaf coordinator sends its
// root each round (wire.MsgPartial2).
type Partial struct {
	// LeafID identifies the producing leaf aggregator.
	LeafID int
	// Round is the communication round the partial belongs to; a root
	// rejects partials for any other round.
	Round int
	// Sum is the weighted parameter sum Σ w·v over the folded updates.
	Sum []float64
	// Weight is the total FedAvg weight Σ w behind Sum.
	Weight float64
	// Count is how many client updates were folded into Sum.
	Count int

	// The remaining fields carry the subtree's coverage and rows.

	// ExpectWeight is the weight the subtree PLANNED to contribute this
	// round — the summed weights of its post-sampling cohort, including
	// members that subsequently failed. The root's round coverage is
	// Σ Weight / Σ ExpectWeight over accepted partials.
	ExpectWeight float64
	// Degraded marks a partial forwarded below the subtree's MinQuorum:
	// still valid, but explicitly covering less weight than planned.
	Degraded bool
	// Sketch, when non-nil, carries the subtree's mergeable row reservoir
	// so sort-based robust rules (median, trimmed mean) can run at the
	// tree root; nil partials fall back to one implied-mean row.
	Sketch *robust.Sketch
}

// ValidatePartial rejects partials that would poison the root aggregate: a
// length mismatch, a non-positive or non-finite weight, a non-positive
// client count, any non-finite sum coordinate, or (when maxNorm > 0) an
// implied mean Sum/Weight whose L2 norm exceeds the same bound individual
// updates are held to — a mean of vectors each within the bound is itself
// within the bound, so an honest leaf can never trip it.
func ValidatePartial(p Partial, wantLen int, maxNorm float64) error {
	if len(p.Sum) != wantLen {
		return fmt.Errorf("fl: leaf %d partial has %d params, want %d", p.LeafID, len(p.Sum), wantLen)
	}
	if p.Weight <= 0 || math.IsNaN(p.Weight) || math.IsInf(p.Weight, 0) {
		return fmt.Errorf("fl: leaf %d partial has invalid weight %v", p.LeafID, p.Weight)
	}
	if p.Count <= 0 {
		return fmt.Errorf("fl: leaf %d partial claims %d contributing clients", p.LeafID, p.Count)
	}
	var ss float64
	for i, v := range p.Sum {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fl: leaf %d partial has non-finite sum at param %d", p.LeafID, i)
		}
		m := v / p.Weight
		ss += m * m
	}
	if maxNorm > 0 {
		if n := math.Sqrt(ss); n > maxNorm {
			return fmt.Errorf("fl: leaf %d partial mean L2 norm %.4g exceeds bound %.4g",
				p.LeafID, n, maxNorm)
		}
	}
	if math.IsNaN(p.ExpectWeight) || math.IsInf(p.ExpectWeight, 0) || p.ExpectWeight < 0 {
		return fmt.Errorf("fl: leaf %d partial has invalid expected weight %v", p.LeafID, p.ExpectWeight)
	}
	if p.ExpectWeight > 0 && p.Weight > p.ExpectWeight*(1+1e-9) {
		return fmt.Errorf("fl: leaf %d partial weight %v exceeds its own expectation %v",
			p.LeafID, p.Weight, p.ExpectWeight)
	}
	if p.Sketch != nil {
		if err := p.Sketch.Validate(wantLen); err != nil {
			return fmt.Errorf("fl: leaf %d partial: %w", p.LeafID, err)
		}
		if p.Sketch.Rows > p.Count {
			return fmt.Errorf("fl: leaf %d partial sketch represents %d rows but claims %d clients",
				p.LeafID, p.Sketch.Rows, p.Count)
		}
		if maxNorm > 0 {
			for i, row := range p.Sketch.RowsView() {
				var rss float64
				for _, v := range row {
					rss += v * v
				}
				if n := math.Sqrt(rss); n > maxNorm {
					return fmt.Errorf("fl: leaf %d partial sketch row %d L2 norm %.4g exceeds bound %.4g",
						p.LeafID, i, n, maxNorm)
				}
			}
		}
	}
	return nil
}

// Accumulator is the streaming-fold interface the transport layer drives:
// Begin once per round with the pre-round global (the center robust rules
// measure against), Fold each valid update (or FoldPartial each leaf
// partial) in a fixed deterministic order, then Finalize. Implementations:
// *Fold (the sample-weighted FedAvg mean, nil robust rule) and the
// adapters NewAccumulator builds over robust.StreamRule.
type Accumulator interface {
	// Begin resets the accumulator for one round; center is the pre-round
	// global parameter vector (retained until Finalize — do not mutate).
	Begin(center []float64)
	// Fold folds one dense validated update. Updates must arrive in the
	// caller's fixed fold order for bit-identical results.
	Fold(u Update) error
	// FoldPartial folds one leaf partial. Only the weighted-mean
	// accumulator supports it; robust stream rules reject partials.
	FoldPartial(p Partial) error
	// Count is the number of client updates folded so far (partials
	// contribute their Count).
	Count() int
	// Finalize completes the round and returns the aggregate. The
	// accumulator must be Begin'd again before reuse.
	Finalize() ([]float64, robust.Report, error)
}

// NewAccumulator returns a streaming accumulator for the given robust rule
// (nil selects the sample-weighted FedAvg mean) and reports whether the
// rule supports streaming at all. Median and the trimmed mean need the
// full per-coordinate column and return ok=false: callers fall back to the
// buffered path for them.
func NewAccumulator(rule robust.Aggregator) (Accumulator, bool) {
	if rule == nil {
		return new(Fold), true
	}
	sr, ok := rule.(robust.StreamRule)
	if !ok {
		return nil, false
	}
	return &streamAccum{rule: sr, st: sr.NewStream()}, true
}

// Fold is the streaming sample-weighted FedAvg mean: Σ w·v accumulated in
// fold order, divided by Σ w at finalize — the exact operation sequence of
// the batch Aggregate, hence bit-identical to it. The accumulator slice is
// reused across Reset calls, so a Fold held across rounds aggregates with
// zero steady-state allocations (FinalizeInto).
type Fold struct {
	acc   []float64
	total float64
	count int
}

// NewFold returns a Fold accumulating dim-parameter updates.
func NewFold(dim int) *Fold {
	f := &Fold{}
	f.Reset(dim)
	return f
}

// Reset clears the fold for a new round of dim-parameter updates, reusing
// the accumulator's storage when it is large enough.
func (f *Fold) Reset(dim int) {
	if cap(f.acc) >= dim {
		f.acc = f.acc[:dim]
		for i := range f.acc {
			f.acc[i] = 0
		}
	} else {
		f.acc = make([]float64, dim)
	}
	f.total = 0
	f.count = 0
}

// Begin implements Accumulator: the center's values are ignored (the
// weighted mean needs no center), only its length matters.
func (f *Fold) Begin(center []float64) { f.Reset(len(center)) }

// Count implements Accumulator.
func (f *Fold) Count() int { return f.count }

// Dim returns the parameter dimension the fold accumulates.
func (f *Fold) Dim() int { return len(f.acc) }

// Fold folds one update into the running weighted sums. The validation and
// arithmetic mirror the batch Aggregate exactly (same error cases, same
// per-coordinate operation order).
func (f *Fold) Fold(u Update) error {
	if u.Sparse() {
		// A sparse or delta update folded as if it were dense would
		// silently misweight every coordinate; demand an explicit
		// Densify step instead.
		return fmt.Errorf("fl: aggregate: client %d update is sparse/delta; densify before aggregation",
			u.ClientID)
	}
	if len(u.Params) != len(f.acc) {
		return fmt.Errorf("fl: aggregate: client %d update has %d params, want %d",
			u.ClientID, len(u.Params), len(f.acc))
	}
	w := float64(u.NumSamples)
	if w <= 0 {
		w = 1
	}
	f.total += w
	acc := f.acc
	for i, v := range u.Params {
		acc[i] += w * v
	}
	f.count++
	return nil
}

// FoldPartial folds one leaf partial: weighted sums add coordinate-wise,
// weights and counts add scalar-wise. The caller is responsible for
// ValidatePartial.
func (f *Fold) FoldPartial(p Partial) error {
	if len(p.Sum) != len(f.acc) {
		return fmt.Errorf("fl: aggregate: leaf %d partial has %d params, want %d",
			p.LeafID, len(p.Sum), len(f.acc))
	}
	if p.Weight <= 0 {
		return fmt.Errorf("fl: aggregate: leaf %d partial has weight %v", p.LeafID, p.Weight)
	}
	f.total += p.Weight
	acc := f.acc
	for i, v := range p.Sum {
		acc[i] += v
	}
	f.count += p.Count
	return nil
}

// errZeroFold mirrors the batch Aggregate's zero-updates error.
var errZeroFold = errors.New("fl: aggregate of zero updates")

// FinalizeInto writes the weighted mean into dst without disturbing the
// accumulator's storage, so the fold can be Reset and reused with zero
// allocations. dst must have the fold's dimension.
func (f *Fold) FinalizeInto(dst []float64) error {
	if f.count == 0 {
		return errZeroFold
	}
	if len(dst) != len(f.acc) {
		return fmt.Errorf("fl: aggregate: finalize into %d params, want %d", len(dst), len(f.acc))
	}
	for i, v := range f.acc {
		dst[i] = v / f.total
	}
	return nil
}

// Finalize implements Accumulator: it divides the accumulator in place and
// detaches it (the returned slice is owned by the caller; the next Reset
// allocates fresh storage).
func (f *Fold) Finalize() ([]float64, robust.Report, error) {
	if f.count == 0 {
		return nil, robust.Report{}, errZeroFold
	}
	out := f.acc
	for i := range out {
		out[i] /= f.total
	}
	rep := robust.Report{Contributors: f.count}
	f.acc = nil
	return out, rep, nil
}

// PartialView packages the fold's current state as a Partial WITHOUT
// dividing. The Sum slice aliases the accumulator: consume (encode/copy)
// it before the next Reset or Fold.
func (f *Fold) PartialView(leafID, round int) Partial {
	return Partial{LeafID: leafID, Round: round, Sum: f.acc, Weight: f.total, Count: f.count}
}

// streamAccum adapts a robust.StreamRule to the Accumulator interface:
// dense validated updates become unweighted rows (robust rules ignore the
// client-claimed sample weights — see the robust package comment).
type streamAccum struct {
	rule robust.StreamRule
	st   robust.Stream
}

func (a *streamAccum) Begin(center []float64) { a.st.Reset(center) }

func (a *streamAccum) Fold(u Update) error {
	if u.Sparse() {
		return fmt.Errorf("fl: aggregate: client %d update is sparse/delta; densify before aggregation",
			u.ClientID)
	}
	return a.st.Fold(u.Params)
}

func (a *streamAccum) FoldPartial(p Partial) error {
	return fmt.Errorf("fl: %s cannot fold leaf partials; hierarchical aggregation requires the weighted-mean rule",
		a.rule.Name())
}

func (a *streamAccum) Count() int { return a.st.Count() }

func (a *streamAccum) Finalize() ([]float64, robust.Report, error) {
	out, rep, err := a.st.Finalize()
	if err != nil {
		return nil, rep, fmt.Errorf("fl: %s aggregation: %w", a.rule.Name(), err)
	}
	return out, rep, nil
}
