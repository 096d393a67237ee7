package fl

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/robust"
)

// FailureReason classifies why a client's contribution to a round was
// dropped. Transport-level reasons (timeout, connection loss) are produced
// by internal/fl/transport; the in-process engine produces train and
// invalid failures.
type FailureReason string

const (
	// FailTrain means the client's TrainLocal returned an error.
	FailTrain FailureReason = "train"
	// FailInvalid means the update failed validation (NaN/Inf values or a
	// parameter-length mismatch).
	FailInvalid FailureReason = "invalid"
	// FailTimeout means the client missed the round deadline.
	FailTimeout FailureReason = "timeout"
	// FailTransport means the client's connection failed mid-round.
	FailTransport FailureReason = "transport"
	// FailQuarantined means the client is serving a reputation quarantine
	// and was excluded from the round before training or exchange.
	FailQuarantined FailureReason = "quarantined"
)

// ErrQuorumAfterTrim is wrapped by AggregateRobust when a robust rule's
// trimming leaves fewer contributors than MinQuorum. The pre-validation
// quorum check can pass while this fails: n valid updates minus 2·⌊f·n⌋
// trimmed tails may fall under the quorum, and aggregating anyway would
// report a round backed by fewer honest inputs than the policy promises.
var ErrQuorumAfterTrim = errors.New("fl: quorum lost after trim")

// ClientFailure describes one client's failure in one round. Observers that
// implement FailureObserver receive these so attack analyses (and ops
// tooling) know exactly which clients were dropped from each aggregate.
type ClientFailure struct {
	ClientID int
	Round    int
	Reason   FailureReason
	Err      error
}

// RoundPolicy relaxes the engine's fail-stop rounds into quorum-based
// partial aggregation: failing or invalid clients are dropped from the
// round instead of aborting the federation, as long as enough valid
// updates survive. A nil policy on the Server keeps the legacy fail-stop
// behavior (first client error aborts the round).
type RoundPolicy struct {
	// MinQuorum is the minimum number of valid updates a round must
	// produce for aggregation to proceed. It is an absolute count checked
	// against the round's participants (the sampled subset when client
	// sampling is enabled), not the full client roster. Values < 1 are
	// treated as 1.
	MinQuorum int
	// SampleFraction, when in (0, 1), trains only a sampled cohort of
	// ~fraction × roster each round (McMahan et al.'s client-sampling
	// parameter C), weighted by each client's NumSamples and never below
	// the quorum; 0 or ≥ 1 trains everyone. It is what the ciptrain
	// -sample-frac flag populates. MinQuorum is checked against the cohort.
	SampleFraction float64
	// SampleSeed seeds the cohort sampler. Each round's cohort is a pure
	// function of (SampleSeed, round), so there is no sampler state to
	// checkpoint and a resumed federation replays the same cohorts.
	SampleSeed int64
	// MaxFailures, when > 0, additionally caps how many per-round client
	// failures are tolerated even if the quorum is still met. 0 means no
	// cap beyond the quorum check.
	MaxFailures int
	// MaxUpdateNorm, when > 0, drops updates whose parameter-vector L2
	// norm exceeds it as FailInvalid. Exploding or poisoned updates can
	// pass the NaN/Inf check with finite but enormous values; a norm bound
	// stops them from dominating the FedAvg aggregate. 0 disables the
	// bound.
	MaxUpdateNorm float64
	// Robust, when non-nil, replaces the sample-weighted FedAvg mean with
	// a Byzantine-resilient rule (coordinate-wise median, trimmed mean,
	// or norm-clipped mean — see internal/fl/robust). Nil keeps plain
	// Aggregate.
	Robust robust.Aggregator
	// Reputation, when non-nil, scores every participant's per-round
	// anomaly evidence (deviation from the robust aggregate, norm-bound
	// hits, validation rejections) and enforces its quarantine decisions:
	// quarantined clients are excluded from rounds before training. The
	// tracker's state rides in ServerState, so checkpoint/resume does not
	// amnesty an attacker.
	Reputation *robust.Reputation
	// Compress, when non-nil, routes every valid update through the
	// compressed wire path in-process: the update becomes a delta against
	// the broadcast global, the client's error-feedback residual is
	// folded in, and the lossy round-tripped reconstruction is what
	// observers and the aggregate actually see — the same information a
	// compressed TCP federation would carry. The bank's residuals ride in
	// ServerState, so checkpoint/resume replays compressed rounds
	// bit-identically. Validation (NaN/Inf, MaxUpdateNorm) runs on the
	// raw pre-compression update.
	Compress *compress.Bank
}

func (p *RoundPolicy) quorum() int {
	if p.MinQuorum < 1 {
		return 1
	}
	return p.MinQuorum
}

// FailureObserver is an optional extension of RoundObserver. Observers
// implementing it are told which clients were dropped each round (possibly
// an empty slice) before ObserveRound delivers the surviving updates.
type FailureObserver interface {
	ObserveFailures(round int, failures []ClientFailure)
}

// ValidateUpdate rejects parameter vectors that would poison or crash the
// aggregate: a length mismatch against the global model, or any NaN/Inf
// entry. The round core runs every update of both engines through it
// (via ValidateUpdateBounded), fail-stop rounds included. Sparse/delta updates
// delegate to ValidateSparse, which additionally enforces index
// structure (range, ordering, no duplicates).
func ValidateUpdate(u Update, wantLen int) error {
	if u.Sparse() {
		return ValidateSparse(u, wantLen)
	}
	if len(u.Params) != wantLen {
		return fmt.Errorf("fl: client %d update has %d params, want %d",
			u.ClientID, len(u.Params), wantLen)
	}
	for i, v := range u.Params {
		if math.IsNaN(v) {
			return fmt.Errorf("fl: client %d update has NaN at param %d", u.ClientID, i)
		}
		if math.IsInf(v, 0) {
			return fmt.Errorf("fl: client %d update has Inf at param %d", u.ClientID, i)
		}
	}
	return nil
}

// UpdateNorm returns the L2 norm of an update's parameter vector.
func UpdateNorm(u Update) float64 {
	var ss float64
	for _, v := range u.Params {
		ss += v * v
	}
	return math.Sqrt(ss)
}

// ValidateUpdateBounded is ValidateUpdate plus an optional L2 norm bound
// (maxNorm ≤ 0 disables it): RoundPolicy.MaxUpdateNorm in-process,
// Coordinator.MaxUpdateNorm over TCP.
func ValidateUpdateBounded(u Update, wantLen int, maxNorm float64) error {
	if err := ValidateUpdate(u, wantLen); err != nil {
		return err
	}
	if maxNorm > 0 {
		if n := UpdateNorm(u); n > maxNorm {
			return fmt.Errorf("fl: client %d update L2 norm %.4g exceeds bound %.4g",
				u.ClientID, n, maxNorm)
		}
	}
	return nil
}

// AggregateRobust aggregates valid updates under an optional robust rule.
// A nil aggregator keeps the legacy sample-weighted FedAvg mean. With a
// rule attached, the post-trim contributor count is checked against
// minQuorum (values < 1 mean 1) BEFORE aggregating, surfacing
// ErrQuorumAfterTrim — the pre-validation count alone can satisfy the
// quorum while trimming leaves too few real contributors behind.
func AggregateRobust(agg robust.Aggregator, center []float64, updates []Update,
	minQuorum int) ([]float64, robust.Report, error) {
	if agg == nil {
		out, err := Aggregate(updates)
		return out, robust.Report{Contributors: len(updates)}, err
	}
	if len(updates) == 0 {
		return nil, robust.Report{}, errors.New("fl: aggregate of zero updates")
	}
	for _, u := range updates {
		if u.Sparse() {
			return nil, robust.Report{}, fmt.Errorf(
				"fl: robust aggregate: client %d update is sparse/delta; densify before aggregation",
				u.ClientID)
		}
	}
	if minQuorum < 1 {
		minQuorum = 1
	}
	if c := agg.Contributors(len(updates)); c < minQuorum {
		return nil, robust.Report{}, fmt.Errorf(
			"%w: %s keeps %d contributors of %d valid updates, need %d",
			ErrQuorumAfterTrim, agg.Name(), c, len(updates), minQuorum)
	}
	h := headerPool.Get().(*robustHeaders)
	params, weights := h.params[:0], h.weights[:0]
	for _, u := range updates {
		params = append(params, u.Params)
		w := float64(u.NumSamples)
		if w <= 0 {
			w = 1
		}
		weights = append(weights, w)
	}
	out, rep, err := agg.Aggregate(center, params, weights)
	for i := range params {
		params[i] = nil // drop update references before pooling
	}
	h.params, h.weights = params[:0], weights[:0]
	headerPool.Put(h)
	if err != nil {
		return nil, rep, fmt.Errorf("fl: %s aggregation: %w", agg.Name(), err)
	}
	return out, rep, nil
}

// robustHeaders is the pooled params/weights header pair AggregateRobust
// hands a robust rule; pooling it removes the two per-round header
// allocations from the steady state (rules only read the headers, so they
// are safe to recycle as soon as Aggregate returns).
type robustHeaders struct {
	params  [][]float64
	weights []float64
}

var headerPool = sync.Pool{New: func() any { return new(robustHeaders) }}

// scoreRound feeds one completed round into the reputation tracker: each
// valid client's distance from the aggregate, then the round-boundary
// EWMA fold and state-machine advance over every non-quarantined
// participant. Violations (norm/validation rejections) were already
// observed during classification.
func (p *RoundPolicy) scoreRound(agg []float64, valid []Update, failures []ClientFailure) {
	rep := p.Reputation
	if rep == nil {
		return
	}
	ids := make([]int, len(valid))
	params := make([][]float64, len(valid))
	for i, u := range valid {
		ids[i] = u.ClientID
		params[i] = u.Params
	}
	rep.ObserveDeviations(ids, robust.Distances(agg, params))
	roundIDs := ids
	for _, f := range failures {
		if f.Reason != FailQuarantined {
			roundIDs = append(roundIDs, f.ClientID)
		}
	}
	rep.EndRound(roundIDs)
}
