package transport

// Tests for the arbitrary-depth aggregation tree: depth-3 parity with the
// flat federation, graceful degradation and coverage accounting, robust
// rules through merged row sketches, parent failover, mid-partial-frame
// kills (in-process and over TCP), v1↔v2 partial negotiation, the
// root-coordinated sampling directive, and bit-identical root restart.

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/fl/faults"
	"github.com/cip-fl/cip/internal/fl/robust"
	"github.com/cip-fl/cip/internal/fl/wire"
	"github.com/cip-fl/cip/internal/telemetry"
)

// startNode launches one tree node (interior or client-facing leaf) and
// returns its bound address plus a wait func for its outcome.
func startNode(t *testing.T, node *Leaf) (string, func() error) {
	t.Helper()
	addrCh := make(chan string, 1)
	var (
		err error
		wg  sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err = node.ListenAndRun("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	return <-addrCh, func() error {
		wg.Wait()
		return err
	}
}

// vecParams replicates vecClient.TrainLocal's deterministic update.
func vecParams(id, round int, global []float64) []float64 {
	p := make([]float64, len(global))
	for i := range p {
		p[i] = global[i] + float64(id+1)*0.01*float64(i+1) + float64(round)*0.001
	}
	return p
}

// TestDepth3TreeMatchesFlat: a root ← 2 interiors ← 4 leaves ← 8 clients
// tree must agree with the flat federation over the identical roster to
// reassociation tolerance (three tiers of weighted-sum reassociation).
func TestDepth3TreeMatchesFlat(t *testing.T) {
	const interiors, leavesPer, perLeaf, rounds = 2, 2, 2, 3
	initial := []float64{0.5, -1.25, 3, 0.0625}
	nLeaves := interiors * leavesPer

	flat := &Coordinator{
		NumClients: nLeaves * perLeaf, Rounds: rounds,
		Initial: append([]float64(nil), initial...),
	}
	want, _ := runVecFederation(t, flat, nLeaves*perLeaf)

	root := &Coordinator{
		NumClients: interiors, Rounds: rounds,
		Initial:        append([]float64(nil), initial...),
		AcceptPartials: true,
	}
	rootAddr, rootWait := startCoordinator(t, root)

	intWaits := make([]func() error, interiors)
	leafWaits := make([]func() error, nLeaves)
	clientErrs := make([][]error, nLeaves)
	for i := 0; i < interiors; i++ {
		interior := &Leaf{
			ID: i, Root: rootAddr,
			Local: Coordinator{
				NumClients:     leavesPer,
				Initial:        append([]float64(nil), initial...),
				AcceptPartials: true,
			},
		}
		intAddr, wait := startNode(t, interior)
		intWaits[i] = wait
		for j := 0; j < leavesPer; j++ {
			g := i*leavesPer + j
			clientErrs[g] = make([]error, perLeaf)
			leaf := &Leaf{
				ID: j, Root: intAddr,
				Local: Coordinator{
					NumClients: perLeaf,
					Initial:    append([]float64(nil), initial...),
				},
			}
			leafWaits[g] = startLeaf(t, leaf, vecShard(g), clientErrs[g])
		}
	}

	got, rootErr := rootWait()
	if rootErr != nil {
		t.Fatalf("root: %v", rootErr)
	}
	for i, wait := range intWaits {
		if err := wait(); err != nil {
			t.Fatalf("interior %d: %v", i, err)
		}
	}
	for g, wait := range leafWaits {
		if err := wait(); err != nil {
			t.Fatalf("leaf %d: %v", g, err)
		}
		for i, err := range clientErrs[g] {
			if err != nil {
				t.Fatalf("leaf %d client %d: %v", g, i, err)
			}
		}
	}
	for i := range want {
		if diff := math.Abs(got[i] - want[i]); diff > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("coord %d: depth-3 tree %v vs flat %v", i, got[i], want[i])
		}
	}
}

// dieClient is a vecClient that fails training from dieRound on, ending
// its session and shrinking its leaf's valid set below quorum.
type dieClient struct {
	vecClient
	dieRound int
}

func (c *dieClient) TrainLocal(round int, global []float64) (fl.Update, error) {
	if round >= c.dieRound {
		return fl.Update{}, errTrain
	}
	return c.vecClient.TrainLocal(round, global)
}

// TestDegradedPartialCarriesCoverage: a leaf that loses local quorum on a
// v2 link forwards a degraded partial instead of dying, and the root's
// coverage gauge dips by exactly the missing shard weight that round.
func TestDegradedPartialCarriesCoverage(t *testing.T) {
	const leaves, perLeaf, rounds = 2, 2, 5
	initial := []float64{1, -2, 3}
	reg := telemetry.NewRegistry()
	rm := fl.NewMetrics(reg)

	coverages := make([]float64, rounds)
	root := &Coordinator{
		NumClients: leaves, Rounds: rounds,
		Initial:        append([]float64(nil), initial...),
		AcceptPartials: true,
		RoundMetrics:   rm,
		AfterRound: func(round int) error {
			coverages[round] = rm.RoundCoverage.Value()
			return nil
		},
	}
	rootAddr, rootWait := startCoordinator(t, root)

	// Leaf 0's second client (samples 8) dies at round 2. MinQuorum 2 (the
	// full roster) makes the leaf fault-tolerant at the exchange yet below
	// quorum afterwards, so round 2 degrades instead of failing the shard.
	shard0 := []fl.Client{
		&vecClient{id: 0, samples: 5},
		&dieClient{vecClient: vecClient{id: 1, samples: 8}, dieRound: 2},
	}
	errs0 := make([]error, len(shard0))
	wait0 := startLeaf(t, &Leaf{
		ID: 0, Root: rootAddr,
		Local: Coordinator{NumClients: perLeaf, MinQuorum: perLeaf,
			Initial: append([]float64(nil), initial...)},
	}, shard0, errs0)
	errs1 := make([]error, perLeaf)
	wait1 := startLeaf(t, &Leaf{
		ID: 1, Root: rootAddr,
		Local: Coordinator{NumClients: perLeaf, Initial: append([]float64(nil), initial...)},
	}, vecShard(1), errs1)

	global, rootErr := rootWait()
	if rootErr != nil {
		t.Fatalf("root should ride out the degraded shard: %v", rootErr)
	}
	if len(global) != len(initial) {
		t.Fatalf("global length %d, want %d", len(global), len(initial))
	}
	if err := wait0(); err != nil {
		t.Fatalf("degraded leaf should finish: %v", err)
	}
	if err := wait1(); err != nil {
		t.Fatalf("healthy leaf: %v", err)
	}

	// Leaf 1's shard (vecShard(1): ids 2,3 → samples 11,14) is always
	// whole. In round 2 leaf 0 plans 13 but delivers 5, so the root sees
	// 30 of 38 planned weight; afterwards the dead client has left the
	// cohort entirely and coverage recovers (the rounds stay degraded —
	// one survivor under quorum 2 — but the shrunken plan is met in full).
	const whole = 11 + 14
	wantDip := (5.0 + whole) / (13.0 + whole)
	for r := 0; r < rounds; r++ {
		want := 1.0
		if r == 2 {
			want = wantDip
		}
		if math.Abs(coverages[r]-want) > 1e-12 {
			t.Fatalf("round %d coverage %v, want %v", r, coverages[r], want)
		}
	}
}

// TestCoverageFloorAbortsRound: the same degraded federation under a
// coverage floor above the surviving weight aborts cleanly at the root.
func TestCoverageFloorAbortsRound(t *testing.T) {
	const leaves, perLeaf, rounds = 2, 2, 5
	initial := []float64{1, -2, 3}
	root := &Coordinator{
		NumClients: leaves, Rounds: rounds,
		Initial:        append([]float64(nil), initial...),
		AcceptPartials: true,
		CoverageFloor:  0.9,
	}
	rootAddr, rootWait := startCoordinator(t, root)

	shard0 := []fl.Client{
		&vecClient{id: 0, samples: 5},
		&dieClient{vecClient: vecClient{id: 1, samples: 8}, dieRound: 2},
	}
	errs0 := make([]error, len(shard0))
	wait0 := startLeaf(t, &Leaf{
		ID: 0, Root: rootAddr,
		Local: Coordinator{NumClients: perLeaf, MinQuorum: perLeaf,
			Initial: append([]float64(nil), initial...)},
	}, shard0, errs0)
	errs1 := make([]error, perLeaf)
	wait1 := startLeaf(t, &Leaf{
		ID: 1, Root: rootAddr,
		Local: Coordinator{NumClients: perLeaf, Initial: append([]float64(nil), initial...)},
	}, vecShard(1), errs1)

	_, rootErr := rootWait()
	if rootErr == nil || !strings.Contains(rootErr.Error(), "below floor") {
		t.Fatalf("root error %v, want a coverage-floor abort", rootErr)
	}
	// The tree tears down with the root; children exit with whatever the
	// broken parent link produced.
	wait0() //nolint:errcheck
	wait1() //nolint:errcheck
}

// TestTreeMedianMatchesFlatRobust: with the reservoir above the client
// count, the root's median over merged sketch rows is bit-identical to
// the flat robust federation over the same updates (per-coordinate sort
// makes row order irrelevant).
func TestTreeMedianMatchesFlatRobust(t *testing.T) {
	const leaves, perLeaf, rounds = 4, 2, 3
	initial := []float64{0.5, -1.25, 3, 0.0625}

	flat := &Coordinator{
		NumClients: leaves * perLeaf, Rounds: rounds,
		Initial: append([]float64(nil), initial...),
		Robust:  robust.Median{},
	}
	want, _ := runVecFederation(t, flat, leaves*perLeaf)

	root := &Coordinator{
		NumClients: leaves, Rounds: rounds,
		Initial:        append([]float64(nil), initial...),
		AcceptPartials: true, Robust: robust.Median{},
	}
	rootAddr, rootWait := startCoordinator(t, root)
	waits := make([]func() error, leaves)
	clientErrs := make([][]error, leaves)
	for l := 0; l < leaves; l++ {
		clientErrs[l] = make([]error, perLeaf)
		waits[l] = startLeaf(t, &Leaf{
			ID: l, Root: rootAddr,
			Local: Coordinator{NumClients: perLeaf, Initial: append([]float64(nil), initial...)},
		}, vecShard(l), clientErrs[l])
	}
	got, rootErr := rootWait()
	if rootErr != nil {
		t.Fatalf("robust root: %v", rootErr)
	}
	for l, wait := range waits {
		if err := wait(); err != nil {
			t.Fatalf("leaf %d: %v", l, err)
		}
		for i, err := range clientErrs[l] {
			if err != nil {
				t.Fatalf("leaf %d client %d: %v", l, i, err)
			}
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coord %d: tree median %v vs flat %v — sketch path lost exactness", i, got[i], want[i])
		}
	}
}

// startProxy forwards TCP connections to target until stopped; stopping
// kills the live connections, simulating a dead parent whose address no
// longer answers.
func startProxy(t *testing.T, target string) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				c.Close() //nolint:errcheck
				continue
			}
			mu.Lock()
			conns = append(conns, c, up)
			mu.Unlock()
			go func() {
				_, _ = io.Copy(up, c)
				up.Close() //nolint:errcheck
			}()
			go func() {
				_, _ = io.Copy(c, up)
				c.Close() //nolint:errcheck
			}()
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close() //nolint:errcheck
		mu.Lock()
		for _, c := range conns {
			c.Close() //nolint:errcheck
		}
		mu.Unlock()
	}
}

// TestLeafFailsOverToAltParent: a leaf whose primary parent address dies
// mid-federation exhausts that parent's retry budget, fails over to the
// alternate address (the same session), rejoins with its token, and
// finishes.
func TestLeafFailsOverToAltParent(t *testing.T) {
	const leaves, perLeaf, rounds = 2, 2, 6
	initial := []float64{1, -2, 3}
	root := &Coordinator{
		NumClients: leaves, Rounds: rounds,
		Initial:        append([]float64(nil), initial...),
		AcceptPartials: true, AcceptRejoins: true,
		MinQuorum: 1, RoundTimeout: 2 * time.Second,
	}
	var stopProxy func()
	var once sync.Once
	root.AfterRound = func(round int) error {
		if round == 1 {
			once.Do(stopProxy)
		}
		// Pace the rounds: without live pacing the root burns through the
		// remaining rounds in microseconds, finishing before the orphaned
		// leaf can fail over and rejoin.
		if round >= 1 {
			time.Sleep(150 * time.Millisecond)
		}
		return nil
	}
	rootAddr, rootWait := startCoordinator(t, root)
	proxyAddr, stop := startProxy(t, rootAddr)
	stopProxy = stop

	errs0 := make([]error, perLeaf)
	wait0 := startLeaf(t, &Leaf{
		ID: 0, Root: rootAddr,
		Local: Coordinator{NumClients: perLeaf, Initial: append([]float64(nil), initial...)},
	}, vecShard(0), errs0)

	// Leaf 1 reaches the federation through the proxy; when the proxy
	// dies after round 1 its per-parent budget burns down fast and the
	// alternate (direct) address takes over.
	errs1 := make([]error, perLeaf)
	wait1 := startLeaf(t, &Leaf{
		ID: 1, Root: proxyAddr, AltParents: []string{rootAddr},
		Local: Coordinator{NumClients: perLeaf, Initial: append([]float64(nil), initial...)},
		Retry: RetryConfig{MaxAttempts: 2, BaseDelay: 20 * time.Millisecond,
			Rng: rand.New(rand.NewSource(3))},
	}, vecShard(1), errs1)

	global, rootErr := rootWait()
	if rootErr != nil {
		t.Fatalf("root: %v", rootErr)
	}
	if len(global) != len(initial) {
		t.Fatalf("global length %d, want %d", len(global), len(initial))
	}
	if err := wait0(); err != nil {
		t.Fatalf("leaf 0: %v", err)
	}
	if err := wait1(); err != nil {
		t.Fatalf("failed-over leaf should finish through the alternate parent: %v", err)
	}
	for i, err := range errs1 {
		if err != nil {
			t.Fatalf("failed-over leaf client %d: %v", i, err)
		}
	}
}

// pipeAddr/pipeListener host a coordinator over in-memory pipes, the
// in-process flavor of the mid-frame-kill test.
type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn, 16), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) Dial(string) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		client.Close() //nolint:errcheck
		server.Close() //nolint:errcheck
		return nil, net.ErrClosed
	}
}

// testMidPartialKill is the shared body of the mid-partial-frame kill
// test: leaf 1's second partial frame is torn in half on the wire and the
// link killed under it. The parent's byte-budgeted reader discards the
// torn frame and drops the shard for that round (quorum 1 holds); the
// leaf redials, rejoins with its session token, and serves the rest.
func testMidPartialKill(t *testing.T, inProcess bool) {
	const leaves, perLeaf, rounds = 2, 2, 5
	initial := []float64{1, -2, 3}
	reg := telemetry.NewRegistry()
	rm := fl.NewMetrics(reg)
	root := &Coordinator{
		NumClients: leaves, Rounds: rounds,
		Initial:        append([]float64(nil), initial...),
		AcceptPartials: true, AcceptRejoins: true,
		MinQuorum: 1, RoundTimeout: 2 * time.Second,
		RoundMetrics: rm,
		// Pace the rounds so the cut leaf's redial+rejoin lands before the
		// federation ends (see TestLeafFailsOverToAltParent).
		AfterRound: func(int) error { time.Sleep(150 * time.Millisecond); return nil },
	}

	var (
		rootAddr string
		rootWait func() ([]float64, error)
		baseDial func(string) (net.Conn, error)
	)
	if inProcess {
		pl := newPipeListener()
		rootAddr = "pipe"
		baseDial = pl.Dial
		var (
			global []float64
			err    error
			wg     sync.WaitGroup
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			global, err = root.RunWithListener(pl, nil)
		}()
		rootWait = func() ([]float64, error) {
			wg.Wait()
			return global, err
		}
	} else {
		rootAddr, rootWait = startCoordinator(t, root)
		baseDial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}

	// Leaf 1's first parent connection tears its second partial frame
	// (round 1) mid-write; later dials are clean.
	var (
		cutMu sync.Mutex
		cut   *faults.CutConn
	)
	cutDial := func(addr string) (net.Conn, error) {
		c, err := baseDial(addr)
		if err != nil {
			return nil, err
		}
		cutMu.Lock()
		defer cutMu.Unlock()
		if cut == nil {
			cut = faults.CutFrame(c, wire.MsgPartial2, 1)
			return cut, nil
		}
		return c, nil
	}

	errs0 := make([]error, perLeaf)
	wait0 := startLeaf(t, &Leaf{
		ID: 0, Root: rootAddr,
		Local: Coordinator{NumClients: perLeaf, Initial: append([]float64(nil), initial...)},
		Retry: RetryConfig{MaxAttempts: 5, BaseDelay: 20 * time.Millisecond, Dial: baseDial,
			Rng: rand.New(rand.NewSource(4))},
	}, vecShard(0), errs0)
	errs1 := make([]error, perLeaf)
	wait1 := startLeaf(t, &Leaf{
		ID: 1, Root: rootAddr,
		Local: Coordinator{NumClients: perLeaf, Initial: append([]float64(nil), initial...)},
		Retry: RetryConfig{MaxAttempts: 5, BaseDelay: 20 * time.Millisecond, Dial: cutDial,
			Rng: rand.New(rand.NewSource(5))},
	}, vecShard(1), errs1)

	global, rootErr := rootWait()
	if rootErr != nil {
		t.Fatalf("root should discard the torn frame and continue: %v", rootErr)
	}
	if len(global) != len(initial) {
		t.Fatalf("global length %d, want %d", len(global), len(initial))
	}
	if err := wait0(); err != nil {
		t.Fatalf("leaf 0: %v", err)
	}
	if err := wait1(); err != nil {
		t.Fatalf("cut leaf should rejoin and finish: %v", err)
	}
	cutMu.Lock()
	fired := cut != nil && cut.Fired()
	cutMu.Unlock()
	if !fired {
		t.Fatal("the scheduled mid-frame cut never fired")
	}
	if rm.TreeShardsLost.Value() < 1 {
		t.Fatal("shard-lost counter did not record the torn partial")
	}
}

func TestMidPartialFrameKillOverTCP(t *testing.T)   { testMidPartialKill(t, false) }
func TestMidPartialFrameKillInProcess(t *testing.T) { testMidPartialKill(t, true) }

// TestPartialVersionNegotiationMatrix drives a median root over two
// leaves. The root sees one row per client through the leaves' sketches
// and must match the simulated per-client median exactly.
func TestPartialVersionNegotiationMatrix(t *testing.T) {
	const leaves, perLeaf, rounds = 2, 2, 3
	initial := []float64{0.5, -1.25, 3, 0.0625}

	root := &Coordinator{
		NumClients: leaves, Rounds: rounds,
		Initial:        append([]float64(nil), initial...),
		AcceptPartials: true, Robust: robust.Median{},
	}
	rootAddr, rootWait := startCoordinator(t, root)
	waits := make([]func() error, leaves)
	clientErrs := make([][]error, leaves)
	for l := range waits {
		clientErrs[l] = make([]error, perLeaf)
		waits[l] = startLeaf(t, &Leaf{
			ID: l, Root: rootAddr,
			Local: Coordinator{NumClients: perLeaf, Initial: append([]float64(nil), initial...)},
		}, vecShard(l), clientErrs[l])
	}
	got, rootErr := rootWait()
	if rootErr != nil {
		t.Fatalf("root: %v", rootErr)
	}
	for l, wait := range waits {
		if err := wait(); err != nil {
			t.Fatalf("leaf %d: %v", l, err)
		}
		for i, err := range clientErrs[l] {
			if err != nil {
				t.Fatalf("leaf %d client %d: %v", l, i, err)
			}
		}
	}

	want := append([]float64(nil), initial...)
	for r := 0; r < rounds; r++ {
		var rows [][]float64
		for id := 0; id < leaves*perLeaf; id++ {
			rows = append(rows, vecParams(id, r, want))
		}
		agg, _, err := robust.Median{}.Aggregate(want, rows, nil)
		if err != nil {
			t.Fatal(err)
		}
		want = agg
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("median root, coord %d: %v vs simulated %v", i, got[i], want[i])
		}
	}
}

// TestRootSamplingDirectiveThinsShards: the root's SampleFraction rides
// the round broadcast down the tree and each client-facing leaf draws its
// own quorum-clamped cohort — exactly two of four clients per leaf per
// round here, with the leaf-mixed seed rotating membership.
func TestRootSamplingDirectiveThinsShards(t *testing.T) {
	const leaves, perLeaf, rounds = 2, 4, 8
	initial := []float64{1, -2, 3}
	root := &Coordinator{
		NumClients: leaves, Rounds: rounds,
		Initial:        append([]float64(nil), initial...),
		AcceptPartials: true,
		SampleFraction: 0.5, SampleSeed: 9,
	}
	rootAddr, rootWait := startCoordinator(t, root)

	shards := make([][]fl.Client, leaves)
	waits := make([]func() error, leaves)
	clientErrs := make([][]error, leaves)
	for l := 0; l < leaves; l++ {
		shards[l] = make([]fl.Client, perLeaf)
		for j := 0; j < perLeaf; j++ {
			id := l*perLeaf + j
			shards[l][j] = &vecClient{id: id, samples: 5 + 3*id}
		}
		clientErrs[l] = make([]error, perLeaf)
		waits[l] = startLeaf(t, &Leaf{
			ID: l, Root: rootAddr,
			Local: Coordinator{
				NumClients: perLeaf, MinQuorum: 2,
				Initial: append([]float64(nil), initial...),
			},
		}, shards[l], clientErrs[l])
	}

	if _, rootErr := rootWait(); rootErr != nil {
		t.Fatalf("root: %v", rootErr)
	}
	for l, wait := range waits {
		if err := wait(); err != nil {
			t.Fatalf("leaf %d: %v", l, err)
		}
	}

	for l := 0; l < leaves; l++ {
		total, touched := 0, 0
		for _, c := range shards[l] {
			n := int(c.(*vecClient).rounds)
			total += n
			if n > 0 {
				touched++
			}
		}
		if total != 2*rounds {
			t.Fatalf("leaf %d trained %d client-rounds, want %d (frac 0.5 of %d, quorum-clamped)",
				l, total, 2*rounds, perLeaf)
		}
		if touched < 3 {
			t.Fatalf("leaf %d only ever sampled %d distinct clients; the per-round draw is not rotating", l, touched)
		}
	}
}

// TestTreeRootRestartResumesBitIdentical: the root (the only stateful
// node) is crashed between rounds and restarted from its snapshot on the
// same address; the leaves ride the outage on their retry budget and the
// final global must match the uninterrupted durable run bit for bit —
// for the mean tree and for the sketch-fed clipped-mean tree.
func TestTreeRootRestartResumesBitIdentical(t *testing.T) {
	const leaves, perLeaf, rounds = 2, 2, 6
	initial := []float64{0.5, -1.25, 3, 0.0625}

	for _, tc := range []struct {
		name string
		rule func() robust.Aggregator
	}{
		{"mean", func() robust.Aggregator { return nil }},
		{"clipped-mean", func() robust.Aggregator { return robust.ClippedMean{MaxNorm: 1e9} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runOnce := func(crash bool) []float64 {
				t.Helper()
				mgr := &checkpoint.Manager{Path: filepath.Join(t.TempDir(), "root.ckpt")}
				root := &Coordinator{
					NumClients: leaves, Rounds: rounds,
					Initial:        append([]float64(nil), initial...),
					AcceptPartials: true, Robust: tc.rule(),
					Checkpoint: mgr, CheckpointEvery: 1,
				}
				if crash {
					root.AfterRound = faults.CrashAt(2)
				}
				rootAddr, rootWait := startCoordinator(t, root)

				waits := make([]func() error, leaves)
				clientErrs := make([][]error, leaves)
				for l := 0; l < leaves; l++ {
					clientErrs[l] = make([]error, perLeaf)
					waits[l] = startLeaf(t, &Leaf{
						ID: l, Root: rootAddr,
						Local: Coordinator{NumClients: perLeaf, Initial: append([]float64(nil), initial...)},
						Retry: RetryConfig{MaxAttempts: 50, BaseDelay: 5 * time.Millisecond,
							Rng: rand.New(rand.NewSource(int64(700 + l)))},
					}, vecShard(l), clientErrs[l])
				}

				global, rootErr := rootWait()
				if crash {
					if !errors.Is(rootErr, faults.ErrCrash) {
						t.Fatalf("first root: got %v, want ErrCrash", rootErr)
					}
					snap, err := mgr.Load()
					if err != nil {
						t.Fatal(err)
					}
					second := &Coordinator{
						NumClients: leaves, Rounds: rounds,
						Initial:        append([]float64(nil), initial...),
						AcceptPartials: true, Robust: tc.rule(),
						Checkpoint: mgr, CheckpointEvery: 1,
						Restore: snap,
					}
					var err2 error
					global, err2 = second.ListenAndRun(rootAddr, nil)
					if err2 != nil {
						t.Fatalf("restarted root: %v", err2)
					}
				} else if rootErr != nil {
					t.Fatalf("root: %v", rootErr)
				}
				for l, wait := range waits {
					if err := wait(); err != nil {
						t.Fatalf("leaf %d: %v", l, err)
					}
					for i, err := range clientErrs[l] {
						if err != nil {
							t.Fatalf("leaf %d client %d: %v", l, i, err)
						}
					}
				}
				return global
			}

			want := runOnce(false)
			got := runOnce(true)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("coord %d: restarted %v vs uninterrupted %v — resume is not bit-identical",
						i, got[i], want[i])
				}
			}
		})
	}
}
