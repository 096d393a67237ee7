package transport

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/fl/robust"
	"github.com/cip-fl/cip/internal/fl/wire"
)

// defaultInflight is the collection window when MaxInflightUpdates is
// unset: large enough that small rosters degenerate to the legacy
// all-concurrent behavior, small enough that peak update memory at scale
// is a few hundred kilobytes per thousand parameters.
const defaultInflight = 64

// rejoinHandshakeTimeout bounds how long a parked rejoin connection may
// take to produce its hello; without it a silent dialer would pin an
// accept goroutine forever.
const rejoinHandshakeTimeout = 10 * time.Second

// session is the run state of one coordinator federation: the roster, the
// evolving global, the rejoin parking lot, and the round core it drives.
type session struct {
	c      *Coordinator
	global []float64
	active []*clientConn
	// core runs every round; a member produces its contribution by an
	// exchange over its connection. Its FailCounts are the durable
	// per-client failure counters.
	core fl.RoundCore[*clientConn]
	// policy is the core's policy, built from the coordinator; the
	// sampling directive is refreshed each round (effectiveSample).
	policy fl.RoundPolicy
	// rc is the round in flight, shared read-only by every exchange.
	rc *roundCtx
	// durable is the highest round covered by a snapshot on disk (-1 when
	// nothing is durable); leaves overwrite it with the root's announce.
	durable int
	token   string
	resumed bool
	// rxTally/txTally accumulate every wire byte either direction; the
	// per-round delta lands in the transport_round_bytes gauge.
	rxTally, txTally uint64

	// leafID and partial serve a tree node (core.PartialOut): rounds end
	// by exposing the pre-division fold through partial instead of
	// advancing global.
	leafID  int
	partial fl.Partial

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

	pendingMu sync.Mutex
	pending   []*clientConn
	// acceptDone is closed when the rejoin accept loop exits.
	acceptDone chan struct{}
}

// newSession builds a session over global and wires its round core to
// the coordinator's configuration; MinQuorum 0 is fail-stop. Everything
// tree-shaped — coverage, row sketches, degraded partials — stays here,
// in the core's hooks.
func newSession(c *Coordinator, global []float64, failCounts map[int]int) *session {
	s := &session{c: c, global: global, lastCoverage: 1}
	s.policy = fl.RoundPolicy{
		MinQuorum: c.MinQuorum, MaxUpdateNorm: c.MaxUpdateNorm,
		Robust: c.Robust, Reputation: c.Reputation,
	}
	window := c.MaxInflightUpdates
	if window <= 0 {
		window = defaultInflight
	}
	s.core = fl.RoundCore[*clientConn]{
		Policy: &s.policy, FailStop: !c.faultTolerant(),
		Observers: c.Observers, Metrics: c.RoundMetrics,
		Window: window, Buffer: c.BufferRounds, MaxBuffered: c.MaxBufferedUpdates,
		FailCounts: failCounts,
		Produce: func(_ int, cc *clientConn, _ []float64) (fl.Contribution, error) {
			return cc.exchange(s.rc)
		},
		Failed:   s.failed,
		Accept:   s.tally,
		Gate:     s.gate,
		Abort:    s.abort,
		Inflight: c.Metrics.inflight,
	}
	// A robust tree root cannot fold partials: its rule runs over the
	// merged row reservoir.
	if c.AcceptPartials && c.Robust != nil {
		s.core.Rows = func() [][]float64 { return s.sketch.RowsView() }
	}
	return s
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
	var failCounts map[int]int
	if c.Restore != nil {
		st := &c.Restore.State
		if len(st.Global) != len(c.Initial) {
			return nil, fmt.Errorf("transport: snapshot has %d global params, coordinator expects %d",
				len(st.Global), len(c.Initial))
		}
		copy(global, st.Global)
		startRound = st.NextRound
		token = c.Restore.Token
		failCounts = make(map[int]int, len(st.FailCounts))
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
	s := newSession(c, global, failCounts)
	s.durable, s.token, s.resumed = startRound-1, token, c.Restore != nil
	every := c.CheckpointEvery
	if every < 1 {
		every = 1
	}
	// saveSnapshot persists the state as of entering nextRound. Snapshots
	// are round-boundary-only by design: a mid-round streaming
	// accumulator is never captured, so a restart replays the interrupted
	// round from its start.
	saveSnapshot := func(nextRound int) error {
		if c.Checkpoint == nil {
			return nil
		}
		snap := &checkpoint.Snapshot{Token: token}
		snap.State.NextRound = nextRound
		snap.State.Global = append([]float64(nil), s.global...)
		snap.State.LastCoverage = s.lastCoverage
		if len(s.core.FailCounts) > 0 {
			snap.State.FailCounts = make(map[int]int, len(s.core.FailCounts))
			for id, n := range s.core.FailCounts {
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
	if s.core.PartialOut && s.treeFrac > 0 {
		return s.treeFrac, s.treeSeed ^ int64(robust.KeyLeaf(s.leafID))
	}
	return s.c.SampleFraction, s.c.SampleSeed
}

// distSample is the sampling directive a tree parent broadcasts to its
// child aggregators this round: the root's own configuration, relayed
// unchanged by interior nodes so the whole tree acts on one directive.
func (s *session) distSample() (frac float64, seed int64) {
	if s.core.PartialOut {
		return s.treeFrac, s.treeSeed
	}
	return s.c.SampleFraction, s.c.SampleSeed
}

// distSketchCap is the row-reservoir capacity in force this round: the
// parent's directive on leaves and interior nodes, the configured
// capacity at the root. It sizes the local reservoir, the inbound partial
// byte budget, and the capacity distributed onward.
func (s *session) distSketchCap() int {
	if s.core.PartialOut {
		return s.sketchCap
	}
	return s.c.treeSketchCap()
}

// runRound executes one communication round over the current roster:
// admit parked rejoiners, encode the round's broadcast, and hand the
// roster to the round core. On success s.global holds the new aggregate
// (or, on a tree node, s.partial holds the pre-division sums for the
// parent) and failed members have left the roster; quarantined and
// unsampled ones stay, their connections open, so a later round can
// reach them without a reconnect.
func (s *session) runRound(round int) error {
	c := s.c
	s.admitPending(round)
	bytesBefore := atomic.LoadUint64(&s.rxTally) + atomic.LoadUint64(&s.txTally)
	s.policy.SampleFraction, s.policy.SampleSeed = s.effectiveSample()

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
		timeout: c.RoundTimeout, budget: budget, met: c.Metrics,
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
	s.rc = rc

	out, err := s.core.Run(round, s.global, s.active)
	if err != nil {
		return err
	}
	for _, f := range out.Failures {
		if f.Reason != fl.FailQuarantined {
			s.active = slices.DeleteFunc(s.active, func(cc *clientConn) bool { return cc.id == f.ClientID })
		}
	}
	if s.core.PartialOut {
		s.partial = out.Partial
		s.partial.LeafID = s.leafID
		s.partial.ExpectWeight = s.plannedWeight
		s.partial.Degraded = out.Degraded
		s.partial.Sketch = s.sketch
	} else {
		s.global = out.Global
	}
	c.Metrics.roundBytes(atomic.LoadUint64(&s.rxTally) + atomic.LoadUint64(&s.txTally) - bytesBefore)
	return nil
}

// tally is the core's Accept hook: it books one accepted contribution in
// the round's coverage ledger and row reservoir. An update's fold weight
// counts as both planned and delivered, and the update joins the
// reservoir as a client-keyed row when the round carries one. A partial's
// planned weight is the child's own expectation (its delivered weight
// when it sent none); its reservoir merges into the local one, and when
// this round carries a reservoir, a child without one broke the directive
// the round frame sent it.
func (s *session) tally(ct *fl.Contribution) error {
	if !ct.IsPartial {
		u := &ct.Update
		w := weight(u.NumSamples)
		s.plannedWeight += w
		s.coveredWeight += w
		if s.sketch != nil {
			s.sketch.Add(robust.KeyClient(u.ClientID), u.Params)
		}
		return nil
	}
	p := &ct.Partial
	if s.sketch != nil {
		if p.Sketch == nil {
			return errInvalid{fmt.Errorf("fl: leaf %d sent no row sketch for a sketch-carrying round", p.LeafID)}
		}
		if err := s.sketch.Merge(p.Sketch); err != nil {
			return err
		}
	}
	expect := p.ExpectWeight
	if expect <= 0 {
		expect = p.Weight
	}
	s.plannedWeight += expect
	s.coveredWeight += p.Weight
	s.rc.met.partialAccepted()
	return nil
}

// weight is a member's FedAvg weight: its sample count, at least 1.
func weight(samples int) float64 {
	return max(float64(samples), 1)
}

// failed is the core's Failed hook for one member dropped from a
// fault-tolerant round: close its connection, count a straggler, and
// book its registered weight as planned but never delivered, pulling the
// round's coverage below 1. Losing a partial child means a whole subtree
// dropped out mid-round.
func (s *session) failed(cc *clientConn, err error) fl.FailureReason {
	cc.conn.Close()
	reason := failureReason(err)
	if reason == fl.FailTimeout {
		s.c.Metrics.stragglerDropped()
	}
	s.plannedWeight += weight(cc.samples)
	if cc.partial {
		s.c.RoundMetrics.RecordTreeShardLost()
	}
	return reason
}

// gate is the core's Gate hook: it settles the round's coverage and, on a
// tree parent, records it and enforces CoverageFloor before aggregation.
func (s *session) gate() error {
	c := s.c
	s.lastCoverage = 1
	if s.plannedWeight > 0 {
		s.lastCoverage = s.coveredWeight / s.plannedWeight
	}
	if !c.AcceptPartials {
		return nil
	}
	c.RoundMetrics.RecordRoundCoverage(s.lastCoverage)
	if c.CoverageFloor > 0 && s.lastCoverage < c.CoverageFloor {
		return fmt.Errorf("transport: round %d: coverage %.4f below floor %.4f (%.1f of %.1f planned cohort weight arrived)",
			s.rc.round, s.lastCoverage, c.CoverageFloor, s.coveredWeight, s.plannedWeight)
	}
	return nil
}

// abort is the core's Abort hook: a fail-stop round cuts every in-flight
// exchange by closing the roster's connections.
func (s *session) abort() {
	for _, cc := range s.active {
		cc.conn.Close()
	}
}
