package transport

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/fl/robust"
	"github.com/cip-fl/cip/internal/fl/wire"
	"github.com/cip-fl/cip/internal/rng"
)

// defaultInflight is the streaming fold window when MaxInflightUpdates is
// unset: large enough that small rosters degenerate to the legacy
// all-concurrent behavior, small enough that peak update memory at scale
// is a few hundred kilobytes per thousand parameters.
const defaultInflight = 64

// rejoinHandshakeTimeout bounds how long a parked rejoin connection may
// take to produce its hello; without it a silent dialer would pin an
// accept goroutine forever.
const rejoinHandshakeTimeout = 10 * time.Second

// session is the run state of one coordinator federation: the roster, the
// evolving global, the rejoin parking lot, and the per-round fold.
type session struct {
	c          *Coordinator
	global     []float64
	active     []*clientConn
	failCounts map[int]int
	// durable is the highest round covered by a snapshot on disk (-1 when
	// nothing is durable); leaves overwrite it with the root's announce.
	durable int
	token   string
	resumed bool
	// rxTally/txTally accumulate every wire byte either direction; the
	// per-round delta lands in the transport_round_bytes gauge.
	rxTally, txTally uint64

	// acc is the streaming accumulator, reused across rounds; nil means
	// the configuration needs the buffered path.
	acc fl.Accumulator
	// fold is the weighted-mean fold used for leaf-partial extraction: it
	// aliases acc when the streaming rule is the plain mean, and is a
	// dedicated fold on buffered leaf configurations.
	fold *fl.Fold
	// wantPartial marks a leaf session: rounds end by exposing the
	// pre-division fold through partial instead of advancing global.
	wantPartial bool
	leafID      int
	partial     fl.Partial
	// leafMean is the scratch for the leaf-local mean that reputation
	// scoring on a buffered leaf measures deviations against.
	leafMean []float64

	// treeFrac/treeSeed/sketchCap hold the parent's per-round tree
	// directive (MsgRound2): the sampling fraction and seed client-facing
	// shards apply, and the row-reservoir capacity partials carry. A root
	// sources the directive from its own configuration; leaves overwrite
	// these from each round frame.
	treeFrac  float64
	treeSeed  int64
	sketchCap int
	// plannedWeight/coveredWeight accumulate one round's planned versus
	// delivered cohort weight; their ratio is the round's coverage.
	plannedWeight, coveredWeight float64
	// sketch is the round's row reservoir: client rows on a client-facing
	// shard, merged child reservoirs on interior nodes and the robust
	// root. Nil when the tree needs no rows (mean-family rules).
	sketch *robust.Sketch
	// lastCoverage is the most recent round's coverage (1 until a round
	// tracks any); snapshots persist it for operator forensics.
	lastCoverage float64

	// peakInflight is the largest number of simultaneously admitted
	// exchanges the most recent streaming round reached.
	peakInflight int

	pendingMu sync.Mutex
	pending   []*clientConn
	// acceptDone is closed when the rejoin accept loop exits.
	acceptDone chan struct{}
}

// streamingAccumulator reports whether the coordinator's configuration can
// aggregate with a constant-memory streaming fold: no round observers
// (they need the full update column), no reputation tracker (it scores
// every update against the finished aggregate), no forced buffering, and
// an aggregation rule with a streaming form (the weighted mean, or a
// robust.StreamRule like Mean/ClippedMean). Median and TrimmedMean need
// the full per-coordinate column and stay on the buffered path.
func (c *Coordinator) streamingAccumulator() (fl.Accumulator, bool) {
	if c.BufferRounds || len(c.Observers) > 0 || c.Reputation != nil {
		return nil, false
	}
	return fl.NewAccumulator(c.Robust)
}

// RunWithListener is ListenAndRun over an already-bound listener, so the
// in-memory load harness can drive a coordinator through net.Pipe without
// touching the network stack. The listener is closed before returning
// when the rejoin accept loop owns it.
func (c *Coordinator) RunWithListener(ln net.Listener, ready func(boundAddr string)) ([]float64, error) {
	if err := checkCodec(c.Codec); err != nil {
		return nil, err
	}
	if c.AcceptPartials && (c.BufferRounds || len(c.Observers) > 0 || c.Reputation != nil) {
		return nil, errors.New("transport: partial aggregation supports no observers, reputation, or forced buffering")
	}
	global := make([]float64, len(c.Initial))
	copy(global, c.Initial)
	startRound := 0
	token := ""
	failCounts := make(map[int]int)
	if c.Restore != nil {
		st := &c.Restore.State
		if len(st.Global) != len(c.Initial) {
			return nil, fmt.Errorf("transport: snapshot has %d global params, coordinator expects %d",
				len(st.Global), len(c.Initial))
		}
		copy(global, st.Global)
		startRound = st.NextRound
		token = c.Restore.Token
		for id, n := range st.FailCounts {
			failCounts[id] = n
		}
		if c.Reputation != nil && st.Reputation != nil {
			if err := c.Reputation.Restore(st.Reputation); err != nil {
				return nil, fmt.Errorf("transport: restoring reputation state: %w", err)
			}
		}
	} else if c.Checkpoint != nil {
		t, err := newToken()
		if err != nil {
			return nil, err
		}
		token = t
	}
	s := &session{
		c:            c,
		global:       global,
		failCounts:   failCounts,
		durable:      startRound - 1,
		token:        token,
		resumed:      c.Restore != nil,
		lastCoverage: 1,
	}
	// A robust tree root cannot stream: the rule needs the merged row
	// reservoir, so partials are buffered and tallied into the sketch.
	if acc, ok := c.streamingAccumulator(); ok && !(c.AcceptPartials && c.Robust != nil) {
		s.acc = acc
		if f, isMean := acc.(*fl.Fold); isMean {
			s.fold = f
		}
	}
	every := c.CheckpointEvery
	if every < 1 {
		every = 1
	}
	// saveSnapshot persists the state as of entering nextRound. Snapshots
	// are round-boundary-only by design: a mid-round streaming
	// accumulator is never captured, so a restart replays the interrupted
	// round from its start — the same semantics the buffered path always
	// had.
	saveSnapshot := func(nextRound int) error {
		if c.Checkpoint == nil {
			return nil
		}
		snap := &checkpoint.Snapshot{Token: token}
		snap.State.NextRound = nextRound
		snap.State.Global = append([]float64(nil), s.global...)
		snap.State.LastCoverage = s.lastCoverage
		if len(s.failCounts) > 0 {
			snap.State.FailCounts = make(map[int]int, len(s.failCounts))
			for id, n := range s.failCounts {
				snap.State.FailCounts[id] = n
			}
		}
		if c.Reputation != nil {
			blob, err := c.Reputation.Snapshot()
			if err != nil {
				return fmt.Errorf("transport: capturing reputation state: %w", err)
			}
			snap.State.Reputation = blob
		}
		if err := c.Checkpoint.Save(snap); err != nil {
			return fmt.Errorf("transport: checkpoint after round %d: %w", nextRound-1, err)
		}
		s.durable = nextRound - 1
		return nil
	}

	if ready != nil {
		ready(ln.Addr().String())
	}
	active, err := c.acceptClients(ln, wire.Welcome{
		Token: token, NextRound: startRound, Resumed: s.resumed,
	}, &s.rxTally, &s.txTally)
	if err != nil {
		return nil, err
	}
	s.active = active
	defer s.closeConns()
	// Deterministic aggregation order regardless of connect order.
	sort.Slice(s.active, func(i, j int) bool { return s.active[i].id < s.active[j].id })

	if c.AcceptRejoins {
		s.acceptDone = make(chan struct{})
		go s.acceptLoop(ln)
		defer func() {
			ln.Close() //nolint:errcheck — unblocks the accept loop; double close is benign
			<-s.acceptDone
		}()
	}

	for round := startRound; round < c.Rounds; round++ {
		if err := s.runRound(round); err != nil {
			return nil, err
		}
		wrote := false
		if c.Checkpoint != nil && ((round+1)%every == 0 || round == c.Rounds-1) {
			if err := saveSnapshot(round + 1); err != nil {
				return nil, err
			}
			wrote = true
		}
		if c.AfterRound != nil {
			if err := c.AfterRound(round); err != nil {
				return nil, err
			}
		}
		if c.Stop != nil {
			select {
			case <-c.Stop:
				if !wrote {
					if err := saveSnapshot(round + 1); err != nil {
						return nil, err
					}
				}
				return nil, fl.ErrStopped
			default:
			}
		}
	}

	if err := s.sendDone(); err != nil {
		return nil, err
	}
	return s.global, nil
}

// closeConns tears down every roster and parked connection at run end.
func (s *session) closeConns() {
	for _, cc := range s.active {
		cc.conn.Close()
	}
	s.pendingMu.Lock()
	pend := s.pending
	s.pending = nil
	s.pendingMu.Unlock()
	for _, cc := range pend {
		cc.conn.Close()
	}
}

// sendDone signals completion to every surviving client.
func (s *session) sendDone() error {
	c := s.c
	for _, cc := range s.active {
		if c.RoundTimeout > 0 {
			cc.conn.SetWriteDeadline(time.Now().Add(c.RoundTimeout)) //nolint:errcheck
		}
		_, err := cc.w.Write(wire.AppendDoneFrame(nil))
		if err != nil && !c.faultTolerant() {
			return fmt.Errorf("transport: sending done to client %d: %w", cc.id, err)
		}
	}
	return nil
}

// acceptLoop keeps accepting connections after the federation starts
// (AcceptRejoins): each newcomer is handshaked under a deadline and
// parked; admission happens at the next round boundary. The loop exits
// when the listener closes.
func (s *session) acceptLoop(ln net.Listener) {
	defer close(s.acceptDone)
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			conn.SetReadDeadline(time.Now().Add(rejoinHandshakeTimeout)) //nolint:errcheck
			cc, err := s.c.handshake(conn, s.token, &s.rxTally, &s.txTally)
			if err != nil {
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{}) //nolint:errcheck
			s.pendingMu.Lock()
			s.pending = append(s.pending, cc)
			s.pendingMu.Unlock()
		}(conn)
	}
}

// admitPending welcomes parked rejoin connections into the roster at a
// round boundary: each is welcomed with NextRound = the admitted round,
// replaces any same-ID roster entry (a dead connection the round loop has
// not yet noticed, or the ghost of the crashed process this one
// replaces), and exchanges from this round on. Welcomes are deferred to
// the boundary because a welcome sent mid-round would promise a NextRound
// the coordinator is still mutating.
func (s *session) admitPending(round int) {
	s.pendingMu.Lock()
	pend := s.pending
	s.pending = nil
	s.pendingMu.Unlock()
	if len(pend) == 0 {
		return
	}
	for _, cc := range pend {
		w := wire.Welcome{Token: s.token, NextRound: round, Resumed: s.resumed}
		if err := cc.sendWelcome(w); err != nil {
			cc.conn.Close()
			continue
		}
		replaced := false
		for i, old := range s.active {
			if old.id == cc.id {
				old.conn.Close()
				s.active[i] = cc
				replaced = true
				break
			}
		}
		if !replaced {
			s.active = append(s.active, cc)
		}
		if cc.hadToken && s.resumed {
			s.c.Metrics.rejoin()
		}
		s.c.Metrics.connAccepted()
	}
	sort.Slice(s.active, func(i, j int) bool { return s.active[i].id < s.active[j].id })
}

// sampleCohort picks this round's cohort from the eligible roster by
// weighted sampling without replacement (Efraimidis–Spirakis: each client
// draws key u^(1/w) with w = its sample count, top-n keys win), so
// clients holding more data are proportionally likelier to participate,
// selection is deterministic given (SampleSeed, round), and a restarted
// coordinator resumes the same cohort schedule. The returned idle set is
// the eligible remainder: it receives no round frame, which in this
// synchronous protocol simply leaves those clients blocked on their next
// read until a later round samples them.
func (s *session) sampleCohort(round int, eligible []*clientConn) (cohort, idle []*clientConn) {
	f, seed := s.effectiveSample()
	if f <= 0 || f >= 1 || len(eligible) < 2 {
		return eligible, nil
	}
	n := int(f*float64(len(eligible)) + 0.5)
	if q := s.c.quorum(); n < q {
		n = q
	}
	if n < 1 {
		n = 1
	}
	if n >= len(eligible) {
		return eligible, nil
	}
	// Per-round stateless derivation: mixing the round index into the
	// seed (SplitMix64's increment) gives every round an independent
	// stream with no sampler state to checkpoint.
	src := rng.NewSource(int64(uint64(seed) ^ (uint64(round)+1)*0x9E3779B97F4A7C15))
	r := rand.New(src)
	type keyed struct {
		key float64
		cc  *clientConn
	}
	keys := make([]keyed, len(eligible))
	for i, cc := range eligible {
		w := float64(cc.samples)
		if w <= 0 {
			w = 1
		}
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		keys[i] = keyed{key: math.Pow(u, 1/w), cc: cc}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].key != keys[j].key {
			return keys[i].key > keys[j].key
		}
		return keys[i].cc.id < keys[j].cc.id
	})
	cohort = make([]*clientConn, 0, n)
	idle = make([]*clientConn, 0, len(eligible)-n)
	for i := range keys {
		if i < n {
			cohort = append(cohort, keys[i].cc)
		} else {
			idle = append(idle, keys[i].cc)
		}
	}
	sort.Slice(cohort, func(i, j int) bool { return cohort[i].id < cohort[j].id })
	return cohort, idle
}

// effectiveSample resolves which cohort-sampling directive this node
// applies locally. A tree parent never thins its child aggregators — the
// directive rides MsgRound2 and is applied by the client-facing shards,
// each mixing its leaf ID into the distributed seed so sibling shards
// draw independent cohorts from one root-coordinated fraction. Everything
// else samples from local configuration.
func (s *session) effectiveSample() (frac float64, seed int64) {
	if s.c.AcceptPartials {
		return 0, 0
	}
	if s.wantPartial && s.treeFrac > 0 {
		return s.treeFrac, s.treeSeed ^ int64(robust.KeyLeaf(s.leafID))
	}
	return s.c.SampleFraction, s.c.SampleSeed
}

// distSample is the sampling directive a tree parent broadcasts to its
// child aggregators this round: the root's own configuration, relayed
// unchanged by interior nodes so the whole tree acts on one directive.
func (s *session) distSample() (frac float64, seed int64) {
	if s.wantPartial {
		return s.treeFrac, s.treeSeed
	}
	return s.c.SampleFraction, s.c.SampleSeed
}

// distSketchCap is the row-reservoir capacity in force this round: the
// parent's directive on leaves and interior nodes, the configured
// capacity at the root. It sizes the local reservoir, the inbound partial
// byte budget, and the capacity distributed onward.
func (s *session) distSketchCap() int {
	if s.wantPartial {
		return s.sketchCap
	}
	return s.c.treeSketchCap()
}

// tallyUpdate credits one accepted client update to the round's coverage
// ledger (its fold weight counts as both planned and delivered) and, when
// the round carries a row reservoir, retains the update as a client-keyed
// sketch row.
func (s *session) tallyUpdate(u fl.Update) {
	w := float64(u.NumSamples)
	if w <= 0 {
		w = 1
	}
	s.plannedWeight += w
	s.coveredWeight += w
	if s.sketch != nil {
		s.sketch.Add(robust.KeyClient(u.ClientID), u.Params)
	}
}

// tallyPartial credits one accepted child partial: planned weight is the
// child's own expectation (falling back to its delivered weight when the
// child sent none), delivered weight is what arrived. Child reservoirs
// merge into the local one; when this round carries a reservoir, a child
// without one broke the directive the round frame sent it.
func (s *session) tallyPartial(p fl.Partial) error {
	expect := p.ExpectWeight
	if expect <= 0 {
		expect = p.Weight
	}
	s.plannedWeight += expect
	s.coveredWeight += p.Weight
	if s.sketch == nil {
		return nil
	}
	if p.Sketch == nil {
		return errInvalid{fmt.Errorf("fl: leaf %d sent no row sketch for a sketch-carrying round", p.LeafID)}
	}
	return s.sketch.Merge(p.Sketch)
}

// stampPartial finishes the round's outgoing partial with its coverage
// fields: the planned (pre-failure) cohort weight, the degradation flag,
// and the round's row reservoir.
func (s *session) stampPartial(degraded bool) {
	s.partial.ExpectWeight = s.plannedWeight
	s.partial.Degraded = degraded
	s.partial.Sketch = s.sketch
}

// runRound executes one communication round over the current roster:
// admit parked rejoiners, split out quarantined clients, sample the
// cohort, exchange (streaming or buffered), enforce quorum, aggregate,
// and record telemetry. On success s.global holds the new aggregate (or,
// on a leaf, s.partial holds the pre-division sums for the root).
func (s *session) runRound(round int) error {
	c := s.c
	roundStart := time.Now()
	s.admitPending(round)
	bytesBefore := atomic.LoadUint64(&s.rxTally) + atomic.LoadUint64(&s.txTally)

	// Quarantined clients are skipped for the round: no round message,
	// no update, no influence. Their connections stay open so a later
	// probation can re-admit them without a reconnect.
	eligible := s.active
	var blocked []*clientConn
	var failures []fl.ClientFailure
	if c.Reputation != nil {
		eligible = make([]*clientConn, 0, len(s.active))
		for _, cc := range s.active {
			if c.Reputation.Blocked(cc.id) {
				blocked = append(blocked, cc)
				failures = append(failures, fl.ClientFailure{
					ClientID: cc.id, Round: round, Reason: fl.FailQuarantined,
					Err: fmt.Errorf("transport: client %d is quarantined", cc.id),
				})
				continue
			}
			eligible = append(eligible, cc)
		}
	}
	cohort, idle := s.sampleCohort(round, eligible)

	s.plannedWeight, s.coveredWeight = 0, 0
	s.sketch = nil
	distCap := s.distSketchCap()
	if distCap > 0 {
		s.sketch = robust.NewSketch(distCap)
	}
	budget := c.updateBudget()
	if c.AcceptPartials {
		budget = c.partialBudget(distCap)
	}
	rc := &roundCtx{
		round: round, global: s.global,
		timeout: c.RoundTimeout, budget: budget,
		maxNorm: c.MaxUpdateNorm, met: c.Metrics,
	}
	// Every roster connection of a tree parent is a child aggregator
	// (handshake enforces it), so one broadcast frame serves the round.
	if c.AcceptPartials {
		frac, seed := s.distSample()
		buf := wire.GetBuffer(wire.HeaderLen + wire.Round2PayloadLen(len(s.global)))[:0]
		rc.bcast = wire.AppendRound2Frame(buf, wire.Round2{
			Round: round, Durable: s.durable, SampleFrac: frac, SampleSeed: seed,
			SketchCap: distCap, Params: s.global,
		})
	} else {
		buf := wire.GetBuffer(wire.HeaderLen + wire.RoundPayloadLen(len(s.global)))[:0]
		rc.bcast = wire.AppendRoundFrame(buf, round, s.durable, s.global)
	}
	defer wire.PutBuffer(rc.bcast)

	var (
		survivors []*clientConn
		valid     []fl.Update
		nValid    int
		heldPeak  int
	)
	if s.acc != nil {
		s.acc.Begin(s.global)
		var ffs []fl.ClientFailure
		var err error
		survivors, ffs, nValid, err = s.runStream(rc, cohort)
		if err != nil {
			return err
		}
		failures = append(failures, ffs...)
		heldPeak = s.peakInflight
	} else {
		var ffs []fl.ClientFailure
		var nPartials int
		var err error
		survivors, valid, nPartials, ffs, err = s.runBuffered(rc, cohort)
		if err != nil {
			return err
		}
		failures = append(failures, ffs...)
		nValid = len(valid) + nPartials
		heldPeak = len(cohort)
	}
	s.active = append(append(survivors, idle...), blocked...)
	sort.Slice(s.active, func(i, j int) bool { return s.active[i].id < s.active[j].id })
	degraded := false
	if nValid < c.quorum() {
		if !(s.wantPartial && nValid >= 1) {
			return fmt.Errorf("transport: round %d: quorum lost: %d valid updates, need %d",
				round, nValid, c.quorum())
		}
		// Graceful degradation: a below-quorum tree node forwards what it
		// has — flagged Degraded, its planned weight intact — instead of
		// stalling or leaving the tree.
		degraded = true
	}
	coverage := 1.0
	if s.plannedWeight > 0 {
		coverage = s.coveredWeight / s.plannedWeight
	}
	s.lastCoverage = coverage
	if c.AcceptPartials {
		c.RoundMetrics.RecordRoundCoverage(coverage)
		if c.CoverageFloor > 0 && coverage < c.CoverageFloor {
			return fmt.Errorf("transport: round %d: coverage %.4f below floor %.4f (%.1f of %.1f planned cohort weight arrived)",
				round, coverage, c.CoverageFloor, s.coveredWeight, s.plannedWeight)
		}
	}
	c.RoundMetrics.RecordRoundPeakUpdateBytes(uint64(heldPeak) * 8 * uint64(len(s.global)))

	var report robust.Report
	if s.acc != nil {
		if s.wantPartial {
			s.partial = s.fold.PartialView(s.leafID, round)
			s.stampPartial(degraded)
			report = robust.Report{Contributors: nValid}
		} else {
			agg, rep, err := s.acc.Finalize()
			if err != nil {
				return fmt.Errorf("transport: round %d: %w", round, err)
			}
			s.global = agg
			report = rep
		}
	} else if c.AcceptPartials {
		// Robust tree root: the rule runs over the merged row reservoir —
		// exact per-client rows while the tree's total stays within the
		// sketch capacity, a uniform K-subsample (documented rank bound)
		// above it. Subtree-level quorum was already enforced on nValid.
		agg, rep, err := c.Robust.Aggregate(s.global, s.sketch.RowsView(), nil)
		if err != nil {
			return fmt.Errorf("transport: round %d: %w", round, err)
		}
		s.global = agg
		report = rep
	} else {
		snapshot := make([]float64, len(s.global))
		copy(snapshot, s.global)
		for _, o := range c.Observers {
			if fo, ok := o.(fl.FailureObserver); ok {
				fo.ObserveFailures(round, failures)
			}
		}
		for _, o := range c.Observers {
			o.ObserveRound(round, snapshot, valid)
		}
		if s.wantPartial {
			s.fold.Reset(len(s.global))
			for _, u := range valid {
				if err := s.fold.Fold(u); err != nil {
					return fmt.Errorf("transport: round %d: %w", round, err)
				}
			}
			s.partial = s.fold.PartialView(s.leafID, round)
			s.stampPartial(degraded)
			report = robust.Report{Contributors: nValid}
			if c.Reputation != nil {
				if len(s.leafMean) != len(s.global) {
					s.leafMean = make([]float64, len(s.global))
				}
				if err := s.fold.FinalizeInto(s.leafMean); err != nil {
					return fmt.Errorf("transport: round %d: %w", round, err)
				}
				s.scoreReputation(s.leafMean, valid, failures)
			}
		} else {
			agg, rep, err := fl.AggregateRobust(c.Robust, s.global, valid, c.MinQuorum)
			if err != nil {
				return fmt.Errorf("transport: round %d: %w", round, err)
			}
			s.scoreReputation(agg, valid, failures)
			s.global = agg
			report = rep
		}
	}

	c.Metrics.roundBytes(atomic.LoadUint64(&s.rxTally) + atomic.LoadUint64(&s.txTally) - bytesBefore)
	c.RoundMetrics.RecordRound(roundStart, nValid, len(failures), len(s.global))
	c.RoundMetrics.RecordRobust(report)
	c.RoundMetrics.RecordReputation(c.Reputation)
	return nil
}

// scoreReputation feeds one buffered round's evidence to the reputation
// tracker: per-client deviation from the aggregate, plus round
// participation for probation accounting.
func (s *session) scoreReputation(agg []float64, valid []fl.Update, failures []fl.ClientFailure) {
	rep := s.c.Reputation
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
		if f.Reason != fl.FailQuarantined {
			roundIDs = append(roundIDs, f.ClientID)
		}
	}
	rep.EndRound(roundIDs)
}

// classifyFailure handles one failed exchange in fault-tolerant mode:
// close the connection, record telemetry and reputation evidence, and
// return the failure record.
func (s *session) classifyFailure(cc *clientConn, round int, err error) fl.ClientFailure {
	c := s.c
	cc.conn.Close()
	reason := failureReason(err)
	switch reason {
	case fl.FailTimeout:
		c.Metrics.stragglerDropped()
	case fl.FailInvalid:
		c.RoundMetrics.RecordValidationRejection()
		if c.Reputation != nil {
			c.Reputation.ObserveViolation(cc.id)
		}
	}
	// The failed member's registered weight was planned but never arrives,
	// pulling the round's coverage below 1; losing a partial child means a
	// whole subtree dropped out mid-round.
	w := float64(cc.samples)
	if w <= 0 {
		w = 1
	}
	s.plannedWeight += w
	if cc.partial {
		c.RoundMetrics.RecordTreeShardLost()
	}
	s.failCounts[cc.id]++
	return fl.ClientFailure{ClientID: cc.id, Round: round, Reason: reason, Err: err}
}

// runBuffered is the legacy round body: every cohort member exchanges
// concurrently, every update is materialized, and classification happens
// afterwards in roster order. Configurations that need the full update
// column (Median/TrimmedMean, observers, reputation) use it — including
// the robust tree root, whose partial children are tallied into the round
// sketch here (nPartials counts them toward quorum). Its memory is
// inherently O(cohort × params), so MaxBufferedUpdates turns a silent
// OOM into an explicit error.
func (s *session) runBuffered(rc *roundCtx, cohort []*clientConn) (survivors []*clientConn, valid []fl.Update, nPartials int, failures []fl.ClientFailure, err error) {
	c := s.c
	if c.MaxBufferedUpdates > 0 && len(cohort) > c.MaxBufferedUpdates {
		return nil, nil, 0, nil, fmt.Errorf(
			"transport: round %d: cohort of %d exceeds MaxBufferedUpdates %d (this configuration buffers the full update column; shrink the cohort or switch to a streaming-capable rule)",
			rc.round, len(cohort), c.MaxBufferedUpdates)
	}
	rc.met.inflight(len(cohort))
	defer rc.met.inflight(0)
	updates := make([]fl.Update, len(cohort))
	parts := make([]fl.Partial, len(cohort))
	errs := make([]error, len(cohort))
	var wg sync.WaitGroup
	for i, cc := range cohort {
		wg.Add(1)
		go func(i int, cc *clientConn) {
			defer wg.Done()
			if cc.partial {
				errs[i] = cc.exchangePartial(rc, &parts[i])
			} else {
				errs[i] = cc.exchange(rc, &updates[i])
			}
		}(i, cc)
	}
	wg.Wait()

	valid = make([]fl.Update, 0, len(cohort))
	survivors = make([]*clientConn, 0, len(cohort))
	for i, cc := range cohort {
		err := errs[i]
		if err == nil && cc.partial {
			err = s.tallyPartial(parts[i])
		}
		if err != nil {
			if !c.faultTolerant() {
				return nil, nil, 0, nil, err
			}
			failures = append(failures, s.classifyFailure(cc, rc.round, err))
			continue
		}
		if cc.partial {
			rc.met.partialAccepted()
			nPartials++
		} else {
			s.tallyUpdate(updates[i])
			valid = append(valid, updates[i])
		}
		survivors = append(survivors, cc)
	}
	return survivors, valid, nPartials, failures, nil
}

// runStream executes one round's exchanges through the bounded streaming
// window: a pool of min(W, cohort) workers claims cohort positions from a
// shared counter, the ordered-admission gate keeps at most W exchanges in
// flight (position i may start only once i < foldedBase+W, so the round
// frame is broadcast at admission and at most ~W decoded updates are ever
// live), and this goroutine folds each result in strict roster-position
// order. Because the fold order is the cohort's ID order regardless of
// arrival timing, the aggregate is bit-identical to the buffered path's.
//
// Deadlock-freedom: the folder only waits on position base, and position
// base always passes the gate (base < base+W), so some worker is always
// able to complete it.
func (s *session) runStream(rc *roundCtx, cohort []*clientConn) (survivors []*clientConn, failures []fl.ClientFailure, nValid int, err error) {
	c := s.c
	s.peakInflight = 0
	if len(cohort) == 0 {
		return nil, nil, 0, nil
	}
	w := c.MaxInflightUpdates
	if w <= 0 {
		w = defaultInflight
	}
	if w > len(cohort) {
		w = len(cohort)
	}
	type slot struct {
		u    fl.Update
		p    fl.Partial
		err  error
		done bool
	}
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		ring     = make([]slot, w)
		base     int
		claimed  = int64(-1)
		aborted  bool
		inflight int
		peak     int
	)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pos := int(atomic.AddInt64(&claimed, 1))
				if pos >= len(cohort) {
					return
				}
				mu.Lock()
				for pos >= base+w && !aborted {
					cond.Wait()
				}
				if aborted {
					mu.Unlock()
					return
				}
				inflight++
				if inflight > peak {
					peak = inflight
				}
				rc.met.inflight(inflight)
				mu.Unlock()
				cc := cohort[pos]
				var sl slot
				if cc.partial {
					sl.err = cc.exchangePartial(rc, &sl.p)
				} else {
					sl.err = cc.exchange(rc, &sl.u)
				}
				sl.done = true
				// Ring slots cannot collide: the gate bounds live
				// positions to [base, base+w), and distinct positions in
				// a w-wide window map to distinct slots mod w.
				mu.Lock()
				ring[pos%w] = sl
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	advance := func() {
		mu.Lock()
		base++
		inflight--
		rc.met.inflight(inflight)
		cond.Broadcast()
		mu.Unlock()
	}
	for pos := 0; pos < len(cohort); pos++ {
		mu.Lock()
		for !ring[pos%w].done {
			cond.Wait()
		}
		sl := ring[pos%w]
		ring[pos%w] = slot{}
		mu.Unlock()
		cc := cohort[pos]
		if sl.err == nil {
			if cc.partial {
				sl.err = s.acc.FoldPartial(sl.p)
				if sl.err == nil {
					sl.err = s.tallyPartial(sl.p)
				}
				if sl.err == nil {
					rc.met.partialAccepted()
				}
			} else {
				sl.err = s.acc.Fold(sl.u)
				if sl.err == nil {
					s.tallyUpdate(sl.u)
				}
			}
		}
		if sl.err == nil {
			nValid++
			survivors = append(survivors, cc)
			advance()
			continue
		}
		if !c.faultTolerant() {
			// Fail-stop: this is the earliest error in fold order, the
			// same error the buffered path would surface. Unblock gate
			// waiters, cut the in-flight I/O, and drain the pool.
			mu.Lock()
			aborted = true
			cond.Broadcast()
			mu.Unlock()
			for _, other := range cohort {
				other.conn.Close()
			}
			wg.Wait()
			rc.met.inflight(0)
			return nil, nil, 0, sl.err
		}
		failures = append(failures, s.classifyFailure(cc, rc.round, sl.err))
		advance()
	}
	wg.Wait()
	rc.met.inflight(0)
	s.peakInflight = peak
	return survivors, failures, nValid, nil
}
