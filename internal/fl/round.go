package fl

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cip-fl/cip/internal/fl/robust"
	"github.com/cip-fl/cip/internal/rng"
)

// The round core. Both engines — the in-process Server and the TCP
// coordinator (flat, leaf and interior) — run every communication round
// through one RoundCore, so what the server sees each round (who was
// sampled, what was validated, what was aggregated) is computed in one
// place. A round is:
//
//  1. quarantine split (reputation-blocked members sit the round out);
//  2. cohort sampling (sampleCohort, stateless per (seed, round));
//  3. ordered-window collection: up to Workers members produce at once,
//     results are taken in roster order (collect);
//  4. validation and failure classification, with cumulative fail counts;
//  5. quorum and fail-stop;
//  6. observers;
//  7. streaming or buffered aggregation;
//  8. reputation scoring;
//  9. round metrics.
//
// Determinism (DESIGN.md §9): AlterFunc runs in a serial pre-pass in
// roster order, results are consumed in roster order whatever the arrival
// timing, and observers and aggregation run serially afterwards — so the
// outcome is bit-identical for every Workers and Window.

// Member is one roster entry of a round: every Client is one, and so is a
// transport connection. NumSamples weights cohort sampling.
type Member interface {
	ID() int
	NumSamples() int
}

// Contribution is one cohort member's round output: a client update or,
// from a child aggregator of a tree (IsPartial), a partial.
type Contribution struct {
	Update    Update
	Partial   Partial
	IsPartial bool
}

// RoundOutcome is what a completed round hands its engine.
type RoundOutcome struct {
	// Global is the new global parameter vector (nil on PartialOut rounds).
	Global []float64
	// Partial is a PartialOut round's pre-division fold. Its Sum aliases
	// the core's accumulator: consume it before the next round.
	Partial Partial
	// Degraded marks a PartialOut round that fell below quorum and
	// forwarded the contributions it had.
	Degraded bool
	// Failures lists the members dropped this round: quarantined ones
	// first, then collection failures in roster order.
	Failures []ClientFailure
	// Workers is the number of members the round let produce at once.
	Workers int
}

// RoundCore runs rounds for one engine. The configuration fields mirror
// the engine's own; the hooks are how the engine plugs in.
type RoundCore[M Member] struct {
	// Policy holds quorum, validation bound, sampling, robust rule,
	// reputation and compression; nil means the zero policy.
	Policy *RoundPolicy
	// FailStop aborts the round on the earliest failure in roster order;
	// fail-stop rounds never sample.
	FailStop bool
	// Observers see the round's failures and surviving updates.
	Observers []RoundObserver
	// Alter may rewrite the parameters one member receives.
	Alter AlterFunc
	// Metrics receives the round telemetry (nil disables it).
	Metrics *Metrics
	// Workers bounds how many members produce at once (≤ 0: one per
	// admitted member).
	Workers int
	// Window bounds how many members a streaming round admits but has not
	// consumed yet, so at most Window results are live (≤ 0: the whole
	// cohort). A round that keeps its updates admits the whole cohort: it
	// holds every update anyway, and a slow member at the head of the
	// window must not hold back the members behind it.
	Window int
	// Buffer keeps every update even when a streaming fold could serve.
	Buffer bool
	// MaxBuffered caps the cohort a round that keeps updates may hold
	// (0: unlimited).
	MaxBuffered int
	// PartialOut ends each round in a Partial for a parent aggregator
	// instead of a new global; below quorum, a round with at least one
	// valid contribution degrades instead of failing.
	PartialOut bool
	// FailCounts accumulates per-member failures across rounds
	// (quarantine exclusions are not failures). Created on first use.
	FailCounts map[int]int

	// Produce makes one member's contribution from the parameters it is
	// sent. It runs concurrently for up to Workers members.
	Produce func(round int, m M, params []float64) (Contribution, error)
	// Failed, when set, classifies a failed member (nil: FailTrain) and
	// does the engine's bookkeeping for it. Called in roster order on
	// fault-tolerant rounds; a validation rejection is FailInvalid
	// whatever it returns.
	Failed func(m M, err error) FailureReason
	// Accept, when set, books one valid contribution before it is folded,
	// in roster order; an error drops the member as failed.
	Accept func(c *Contribution) error
	// Gate, when set, runs after the quorum check and before observers
	// and aggregation; an error aborts the round.
	Gate func() error
	// Rows, when set, supplies the rows Policy.Robust evaluates instead of
	// folding contributions (a robust tree root's merged sketch).
	Rows func() [][]float64
	// Abort, when set, cuts in-flight production after a fail-stop.
	Abort func()
	// Inflight, when set, is told the number of admitted members whose
	// result has not been consumed yet.
	Inflight func(n int)

	// fold and spare are the pooled weighted-mean state: the accumulator
	// and the buffer the next mean is finalized into, swapped with the
	// caller's global each round so steady-state aggregation allocates
	// nothing. stream is the accumulator of a streaming robust rule, built
	// for streamPolicy's rule streamRule.
	fold         Fold
	spare        []float64
	stream       Accumulator
	streamPolicy *RoundPolicy
	streamRule   robust.Aggregator
}

var zeroPolicy RoundPolicy

// Run executes one round over roster (in the engine's stable order)
// against the pre-round global. On success the caller adopts
// RoundOutcome.Global, and the core may reuse the old global's storage.
func (e *RoundCore[M]) Run(round int, global []float64, roster []M) (RoundOutcome, error) {
	start := time.Now()
	p := e.Policy
	if p == nil {
		p = &zeroPolicy
	}
	q := p.quorum()
	eligible, failures := splitQuarantined(p.Reputation, round, roster)
	cohort := eligible
	if !e.FailStop {
		cohort = sampleCohort(eligible, p.SampleFraction, p.SampleSeed, round, q)
	}
	acc, keep := e.sink(p)
	if keep && e.MaxBuffered > 0 && len(cohort) > e.MaxBuffered {
		return RoundOutcome{}, fmt.Errorf(
			"fl: round %d: cohort of %d exceeds the buffered-update cap %d (this configuration buffers the full update column; shrink the cohort or switch to a streaming-capable rule)",
			round, len(cohort), e.MaxBuffered)
	}
	if acc != nil {
		acc.Begin(global)
	}
	var params [][]float64
	if e.Alter != nil {
		params = make([][]float64, len(cohort))
		for i, m := range cohort {
			params[i] = global
			if altered := e.Alter(round, m.ID(), append([]float64(nil), global...)); altered != nil {
				params[i] = altered
			}
		}
	}

	var valid []Update
	if keep {
		valid = make([]Update, 0, len(cohort))
	}
	nValid, hard := 0, 0
	admit := len(cohort)
	if e.Window > 0 && !keep {
		admit = min(e.Window, admit)
	}
	workers := admit
	if e.Workers > 0 {
		workers = min(e.Workers, admit)
	}
	peak, err := e.collect(round, global, cohort, params, workers, admit, p.MaxUpdateNorm, func(m M, sl *slot) error {
		err := sl.err
		if err == nil && !sl.c.IsPartial && p.Compress != nil {
			// Serial and roster-ordered: the error-feedback fold mutates
			// per-client residuals.
			u := &sl.c.Update
			out, wireBytes, cerr := p.Compress.RoundTrip(m.ID(), global, u.Params)
			if cerr != nil {
				return fmt.Errorf("fl: round %d: %w", round, cerr)
			}
			u.Params = out
			e.Metrics.RecordCompressedUpdate(wireBytes, 8*len(out))
		}
		if err == nil && e.Accept != nil {
			err = e.Accept(&sl.c)
		}
		if err == nil && acc != nil {
			if sl.c.IsPartial {
				err = acc.FoldPartial(sl.c.Partial)
			} else {
				err = acc.Fold(sl.c.Update)
			}
		}
		if err == nil {
			if keep && !sl.c.IsPartial {
				valid = append(valid, sl.c.Update)
			}
			nValid++
			return nil
		}
		if e.FailStop {
			return err
		}
		failures = append(failures, e.fail(round, m, err, sl.invalid, p.Reputation))
		hard++
		return nil
	})
	if err != nil {
		return RoundOutcome{}, err
	}
	if limit := p.MaxFailures; limit > 0 && hard > limit {
		return RoundOutcome{}, fmt.Errorf("fl: round %d: %d client failures exceed cap %d",
			round, hard, limit)
	}
	out := RoundOutcome{Failures: failures, Workers: workers}
	if nValid < q {
		if !e.PartialOut || nValid == 0 {
			return RoundOutcome{}, fmt.Errorf("fl: round %d: quorum lost: %d valid updates from %d participants, need %d",
				round, nValid, len(cohort), q)
		}
		out.Degraded = true
	}
	if e.Gate != nil {
		if err := e.Gate(); err != nil {
			return RoundOutcome{}, err
		}
	}
	held := peak
	if keep {
		held = len(cohort)
	}
	e.Metrics.RecordRoundPeakUpdateBytes(uint64(held) * 8 * uint64(len(global)))

	for _, o := range e.Observers {
		if fo, ok := o.(FailureObserver); ok {
			fo.ObserveFailures(round, failures)
		}
	}
	for _, o := range e.Observers {
		o.ObserveRound(round, append([]float64(nil), global...), valid)
	}
	agg, report, err := e.aggregate(round, global, acc, valid, nValid, p, &out)
	if err != nil {
		return RoundOutcome{}, fmt.Errorf("fl: round %d: %w", round, err)
	}
	p.scoreRound(agg, valid, failures)
	e.Metrics.RecordRound(start, nValid, len(failures), len(global))
	e.Metrics.RecordRobust(report)
	e.Metrics.RecordReputation(p.Reputation)
	return out, nil
}

// sink picks where valid contributions go: the accumulator they fold into
// as they arrive (nil when the rule has no streaming form), and whether
// updates are kept as well — for observers, reputation scoring, a rule
// that needs the full update column, or a forced Buffer. The weighted mean
// always folds into the pooled Fold; a robust tree root (Rows) folds
// nothing, its rows arrive through Accept.
func (e *RoundCore[M]) sink(p *RoundPolicy) (acc Accumulator, keep bool) {
	if e.Rows != nil {
		return nil, false
	}
	if rule := p.Robust; rule == nil {
		acc = &e.fold
	} else {
		// The rules are comparable values, so a rule swapped into the
		// same policy is caught too.
		if p != e.streamPolicy || rule != e.streamRule {
			e.stream, _ = NewAccumulator(rule)
			e.streamPolicy, e.streamRule = p, rule
		}
		acc = e.stream
	}
	return acc, e.Buffer || len(e.Observers) > 0 || p.Reputation != nil || acc == nil
}

// aggregate finishes the round from its sink. It returns the center the
// reputation tracker scores deviations against: the new global, or on
// PartialOut rounds the local mean (only computed when a tracker needs it).
func (e *RoundCore[M]) aggregate(round int, global []float64, acc Accumulator, valid []Update,
	nValid int, p *RoundPolicy, out *RoundOutcome) ([]float64, robust.Report, error) {
	switch {
	case e.PartialOut:
		out.Partial = e.fold.PartialView(0, round)
		report := robust.Report{Contributors: nValid}
		if p.Reputation == nil {
			return nil, report, nil
		}
		mean := e.spareFor(len(global))
		return mean, report, e.fold.FinalizeInto(mean)
	case e.Rows != nil:
		agg, report, err := p.Robust.Aggregate(global, e.Rows(), nil)
		out.Global = agg
		return agg, report, err
	case acc == Accumulator(&e.fold):
		agg := e.spareFor(len(global))
		if err := e.fold.FinalizeInto(agg); err != nil {
			return nil, robust.Report{}, err
		}
		e.spare = global
		out.Global = agg
		return agg, robust.Report{Contributors: e.fold.Count()}, nil
	case acc != nil:
		agg, report, err := acc.Finalize()
		out.Global = agg
		return agg, report, err
	default:
		agg, report, err := AggregateRobust(p.Robust, global, valid, p.quorum())
		out.Global = agg
		return agg, report, err
	}
}

// spareFor returns the pooled spare buffer at length n.
func (e *RoundCore[M]) spareFor(n int) []float64 {
	if cap(e.spare) < n {
		e.spare = make([]float64, n)
	}
	return e.spare[:n]
}

// fail classifies one failed member on a fault-tolerant round: the
// engine's own reason (FailInvalid for the core's validation rejections),
// the rejection telemetry and reputation evidence of invalid updates, and
// the cumulative fail count.
func (e *RoundCore[M]) fail(round int, m M, err error, invalid bool, rep *robust.Reputation) ClientFailure {
	reason := FailTrain
	if e.Failed != nil {
		reason = e.Failed(m, err)
	}
	if invalid {
		reason = FailInvalid
	}
	if reason == FailInvalid {
		e.Metrics.RecordValidationRejection()
		if rep != nil {
			rep.ObserveViolation(m.ID())
		}
	}
	if e.FailCounts == nil {
		e.FailCounts = make(map[int]int)
	}
	e.FailCounts[m.ID()]++
	return ClientFailure{ClientID: m.ID(), Round: round, Reason: reason, Err: err}
}

// slot is one cohort position's result in the collection window.
type slot struct {
	c   Contribution
	err error
	// invalid marks err as the core's own validation rejection.
	invalid bool
	done    bool
}

// produce runs on a window worker: it makes one member's contribution and
// validates it (NaN/Inf, length and norm bound for updates, the partial
// checks for partials), stamping the authoritative client ID.
func (e *RoundCore[M]) produce(round int, m M, params []float64, dim int, maxNorm float64) slot {
	c, err := e.Produce(round, m, params)
	invalid := false
	if err == nil {
		if c.IsPartial {
			err = ValidatePartial(c.Partial, dim, maxNorm)
		} else {
			c.Update.ClientID = m.ID()
			err = ValidateUpdateBounded(c.Update, dim, maxNorm)
		}
		if err != nil {
			invalid = true
			err = fmt.Errorf("fl: round %d: %w", round, err)
		}
	}
	return slot{c: c, err: err, invalid: invalid, done: true}
}

// collect is the one collection loop. A pool of workers claims cohort
// positions from a shared counter; the ordered-admission gate keeps at
// most admit positions admitted but unconsumed (position i starts only
// once i < base+admit), so at most admit results are ever live; this
// goroutine hands each result to handle in strict roster order. The order — and so every
// floating-point fold — is the cohort's whatever the arrival timing.
//
// Deadlock-freedom: the consumer only waits on position base, and base
// always passes the gate, so some worker can always complete it. An error
// from handle aborts: gate waiters are released, Abort cuts in-flight
// production, and the pool is drained before collect returns, so no
// worker outlives the round.
func (e *RoundCore[M]) collect(round int, global []float64, cohort []M, params [][]float64, workers, admit int,
	maxNorm float64, handle func(m M, sl *slot) error) (int, error) {
	if len(cohort) == 0 {
		return 0, nil
	}
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		ring     = make([]slot, admit)
		base     int
		claimed  = int64(-1)
		aborted  bool
		inflight int
		peak     int
		wg       sync.WaitGroup
	)
	setInflight := func(n int) {
		if e.Inflight != nil {
			e.Inflight(n)
		}
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pos := int(atomic.AddInt64(&claimed, 1))
				if pos >= len(cohort) {
					return
				}
				mu.Lock()
				for pos >= base+admit && !aborted {
					cond.Wait()
				}
				if aborted {
					mu.Unlock()
					return
				}
				inflight++
				peak = max(peak, inflight)
				setInflight(inflight)
				mu.Unlock()
				in := global
				if params != nil {
					in = params[pos]
				}
				sl := e.produce(round, cohort[pos], in, len(global), maxNorm)
				// Ring slots cannot collide: the gate bounds live positions
				// to [base, base+admit), distinct slots mod admit.
				mu.Lock()
				ring[pos%admit] = sl
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	for pos, m := range cohort {
		mu.Lock()
		for !ring[pos%admit].done {
			cond.Wait()
		}
		sl := ring[pos%admit]
		ring[pos%admit] = slot{}
		mu.Unlock()
		if err := handle(m, &sl); err != nil {
			mu.Lock()
			aborted = true
			cond.Broadcast()
			mu.Unlock()
			if e.Abort != nil {
				e.Abort()
			}
			wg.Wait()
			setInflight(0)
			return 0, err
		}
		mu.Lock()
		base++
		inflight--
		setInflight(inflight)
		cond.Broadcast()
		mu.Unlock()
	}
	wg.Wait()
	setInflight(0)
	return peak, nil
}

// splitQuarantined partitions the roster into the members eligible this
// round and the failure records of those an active quarantine excludes.
// Excluded members receive nothing and contribute nothing.
func splitQuarantined[M Member](rep *robust.Reputation, round int, roster []M) ([]M, []ClientFailure) {
	if rep == nil {
		return roster, nil
	}
	eligible := make([]M, 0, len(roster))
	var excluded []ClientFailure
	for _, m := range roster {
		if rep.Blocked(m.ID()) {
			excluded = append(excluded, ClientFailure{
				ClientID: m.ID(), Round: round, Reason: FailQuarantined,
				Err: fmt.Errorf("fl: client %d is quarantined", m.ID()),
			})
			continue
		}
		eligible = append(eligible, m)
	}
	return eligible, excluded
}

// sampleCohort draws the round's cohort from the eligible roster by
// weighted sampling without replacement (Efraimidis–Spirakis: each member
// draws key u^(1/w) with w its sample count, the top n keys win), so
// members holding more data are proportionally likelier to participate.
// n is round(frac·len), never below the quorum. The random stream derives
// statelessly from (seed, round), so there is no sampler state to
// checkpoint and a resumed federation replays the same cohorts. The
// cohort keeps roster order; frac outside (0, 1) keeps everyone.
func sampleCohort[M Member](eligible []M, frac float64, seed int64, round, quorum int) []M {
	if frac <= 0 || frac >= 1 || len(eligible) < 2 {
		return eligible
	}
	n := max(int(frac*float64(len(eligible))+0.5), quorum, 1)
	if n >= len(eligible) {
		return eligible
	}
	// Mixing the round into the seed (SplitMix64's increment) gives every
	// round an independent stream.
	r := rand.New(rng.NewSource(int64(uint64(seed) ^ (uint64(round)+1)*0x9E3779B97F4A7C15)))
	keys := make([]float64, len(eligible))
	order := make([]int, len(eligible))
	for i, m := range eligible {
		w := float64(m.NumSamples())
		if w <= 0 {
			w = 1
		}
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		keys[i] = math.Pow(u, 1/w)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if ka, kb := keys[order[a]], keys[order[b]]; ka != kb {
			return ka > kb
		}
		return order[a] < order[b]
	})
	chosen := make([]bool, len(eligible))
	for _, i := range order[:n] {
		chosen[i] = true
	}
	cohort := make([]M, 0, n)
	for i, m := range eligible {
		if chosen[i] {
			cohort = append(cohort, m)
		}
	}
	return cohort
}
