package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/fl/transport"
	"github.com/cip-fl/cip/internal/fl/wire"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/telemetry"
)

// The fed-tree workload: a depth-3 aggregation tree. The root talks to two
// interior nodes over loopback TCP; each interior serves two leaves and
// each leaf 32 light clients over in-memory pipes. Every update carries
// the 103,364 parameters of the full-scale CIFAR-100 dual-channel VGG.
const (
	treeInteriors = 2
	treeLeaves    = 4
	treeClients   = 128
	treeDim       = 103364
	// treeFedRounds is the length of one tree federation; a run repeats
	// federations, so setup is sampled several times.
	treeFedRounds = 25
	// treeQuorum is each leaf's MinQuorum: a leaf aggregates as long as
	// three quarters of its clients deliver valid updates.
	treeQuorumShare = 0.75
	// treeSetups is how many setups a run samples at least; setup_s is
	// their median.
	treeSetups = 11
	// treeMaxNorm bounds every client update's L2 norm at the leaves. An
	// honest update here has a norm below 100.
	treeMaxNorm = 1000
	// treeTol is how far the root's final global may sit from the closed
	// form (floating-point reassociation across the tree).
	treeTol = 1e-9
)

// treeMinFeds is how many federations a run measures at least: enough
// for 100 rounds, so at least ten lie beyond round_ms_p90.
func treeMinFeds(opts options) int {
	if opts.tiny {
		return 2
	}
	return (100 + treeFedRounds - 1) / treeFedRounds
}

type treeShape struct {
	clients, rounds int
	// client builds participant id; nil builds an offsetClient.
	client func(id int) fl.Client
}

func treeShapeFor(opts options) treeShape {
	if opts.tiny {
		return treeShape{clients: 2 * treeLeaves, rounds: 3}
	}
	return treeShape{clients: treeClients, rounds: treeFedRounds}
}

// clientWeight is client id's FedAvg weight (its NumSamples). Every run of
// four consecutive ids sums to 8, so the per-leaf and total weights are
// powers of two.
func clientWeight(id int) int { return [4]int{1, 2, 3, 2}[id%4] }

// offsetScale and offsetBasis define the deterministic update: client id
// returns global + offsetScale(id, round)·offsetBasis.
func offsetScale(id, round int) float64 { return float64((id*7+round*13)%9 - 4) }

func offsetBasis(j int) float64 { return float64(j%17-8) / 1024 }

// offsetClient is a light federation participant: no training, just the
// deterministic offset, written into the decoded broadcast it owns.
type offsetClient struct{ id int }

func (c *offsetClient) ID() int         { return c.id }
func (c *offsetClient) NumSamples() int { return clientWeight(c.id) }

func (c *offsetClient) TrainLocal(round int, global []float64) (fl.Update, error) {
	a := offsetScale(c.id, round)
	for j := range global {
		global[j] += a * offsetBasis(j)
	}
	return fl.Update{Params: global, NumSamples: clientWeight(c.id), TrainLoss: 1}, nil
}

// closedForm is the global the root must end with: every round moves each
// coordinate by the weighted mean offset.
func closedForm(initial []float64, clients, rounds int) []float64 {
	var shift float64
	for r := 0; r < rounds; r++ {
		var s, w float64
		for id := 0; id < clients; id++ {
			s += float64(clientWeight(id)) * offsetScale(id, r)
			w += float64(clientWeight(id))
		}
		shift += s / w
	}
	out := make([]float64, len(initial))
	for j := range out {
		out[j] = initial[j] + shift*offsetBasis(j)
	}
	return out
}

// fullScaleInitial is the initial global: a freshly initialized dual-channel
// VGG at the full-scale CIFAR-100 preset's shape (3×12×12, 100 classes).
func fullScaleInitial(seed int64) []float64 {
	dual := core.NewDualChannelModel(rand.New(rand.NewSource(seed+1)), model.VGG,
		model.Input{C: 3, H: 12, W: 12}, 100)
	return nn.FlattenParams(dual.Params())
}

// memListener hands out in-memory net.Pipe connections: Dial queues the
// server end for Accept. The queue holds one whole roster, so Dial never
// blocks.
type memListener struct {
	mu     sync.Mutex
	closed bool
	conns  chan net.Conn
	done   chan struct{}
	wrap   func(c net.Conn, dialer bool) net.Conn
}

func newMemListener(roster int, wrap func(net.Conn, bool) net.Conn) *memListener {
	return &memListener{conns: make(chan net.Conn, roster), done: make(chan struct{}), wrap: wrap}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return l.wrap(c, false), nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close stops Accept and closes every connection dialed but not yet
// accepted, so its dialer fails instead of waiting for a welcome.
func (l *memListener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	close(l.done)
	for {
		select {
		case c := <-l.conns:
			c.Close()
		default:
			return nil
		}
	}
}

func (l *memListener) Addr() net.Addr { return &net.UnixAddr{Name: "mem", Net: "mem"} }

func (l *memListener) Dial(string) (net.Conn, error) {
	client, server := net.Pipe()
	l.mu.Lock()
	err := net.ErrClosed
	if !l.closed {
		select {
		case l.conns <- server:
			err = nil
		default:
			err = errors.New("mem listener: more dials than the roster")
		}
	}
	l.mu.Unlock()
	if err != nil {
		client.Close()
		server.Close()
		return nil, err
	}
	return l.wrap(client, true), nil
}

// tcpListener wraps the root's loopback listener so its accepted
// connections pass through the tap.
type tcpListener struct {
	net.Listener
	wrap func(c net.Conn, dialer bool) net.Conn
}

func (l tcpListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(c, false), nil
}

// treeNode is one aggregator's telemetry.
type treeNode struct {
	reg   *telemetry.Registry
	tm    *transport.Metrics
	round *fl.Metrics
}

func newTreeNode() *treeNode {
	reg := telemetry.NewRegistry()
	return &treeNode{reg: reg, tm: transport.NewMetrics(reg), round: fl.NewMetrics(reg)}
}

// treeRun is the outcome of one tree federation.
type treeRun struct {
	setup     time.Duration
	roundMs   []float64
	allocMiB  []float64
	global    []float64
	coverage  []float64
	dropped   int
	nodes     []*treeNode // root, interiors, leaves
	root      *treeNode
	ckptPath  string
	firstSend time.Time
	// marks are the wall-clock ends of every root round; tapMarks the
	// connection tap's byte and frame totals at those instants.
	marks    []time.Time
	tapMarks [][2]uint64
}

// runTreeFed assembles the tree, runs one federation and tears it down.
// tap, when non-nil, wraps every connection (the traced run); heap, when
// non-nil, gets one peak window per round.
func runTreeFed(shape treeShape, initial []float64, dir string, tap *connTap, heap *heapWatch) (*treeRun, error) {
	start := time.Now()
	run := &treeRun{ckptPath: filepath.Join(dir, "root.ckpt")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var firstOnce sync.Once
	rootWrap := func(c net.Conn, dialer bool) net.Conn {
		return tap.wrap(c, roleRootDown, func(t time.Time) {
			firstOnce.Do(func() { run.firstSend = t })
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()

	run.root = newTreeNode()
	run.nodes = append(run.nodes, run.root)
	var prevMark time.Time
	afterRound := func(int) error {
		now := time.Now()
		heap.lap()
		_, allocs := heapStats()
		if prevMark.IsZero() {
			prevMark = run.firstSend
		}
		run.roundMs = append(run.roundMs, ms(now.Sub(prevMark)))
		run.allocMiB = append(run.allocMiB, float64(allocs)/mib)
		run.coverage = append(run.coverage, run.root.round.RoundCoverage.Value())
		run.marks = append(run.marks, now)
		if tap != nil {
			run.tapMarks = append(run.tapMarks, tap.totals())
		}
		prevMark = now
		return nil
	}
	root := &transport.Coordinator{
		NumClients:      treeInteriors,
		Rounds:          shape.rounds,
		Initial:         initial,
		Codec:           wire.CodecBinary,
		AcceptPartials:  true,
		Checkpoint:      &checkpoint.Manager{Path: run.ckptPath, Metrics: checkpoint.NewMetrics(run.root.reg)},
		CheckpointEvery: 1,
		AfterRound:      afterRound,
		Metrics:         run.root.tm,
		RoundMetrics:    run.root.round,
	}

	// Every listener exists before any node starts, so the first failure
	// can close them all: a node still waiting for its roster then fails
	// too, instead of waiting forever on a peer that is gone.
	perLeaf := shape.clients / treeLeaves
	kids := treeLeaves / treeInteriors
	interiorLns := make([]*memListener, treeInteriors)
	leafLns := make([]*memListener, treeLeaves)
	nodes := make([]*treeNode, treeInteriors+treeLeaves)
	for i := range interiorLns {
		interiorLns[i] = newMemListener(kids, func(c net.Conn, dialer bool) net.Conn {
			if dialer {
				return tap.wrap(c, roleLeafUp, nil)
			}
			return tap.wrap(c, roleInteriorDown, nil)
		})
		nodes[i] = newTreeNode()
	}
	for l := range leafLns {
		node := newTreeNode()
		leafLns[l] = newMemListener(perLeaf, func(c net.Conn, dialer bool) net.Conn {
			if dialer {
				return tap.wrap(c, roleClientUp, nil)
			}
			return tap.wrapLeafDown(c, node.tm)
		})
		nodes[treeInteriors+l] = node
	}
	run.nodes = append(run.nodes, nodes...)
	var closeOnce sync.Once
	closeAll := func() {
		closeOnce.Do(func() {
			ln.Close()
			for _, l := range append(interiorLns, leafLns...) {
				l.Close()
			}
		})
	}
	defer closeAll()

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	fail := func(err error) {
		if err != nil {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
			closeAll()
		}
	}
	var final []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		g, err := root.RunWithListener(tcpListener{ln, rootWrap}, nil)
		final = g
		fail(err)
	}()
	for i, iln := range interiorLns {
		interior := &transport.Leaf{
			ID:   i,
			Root: addr,
			Local: transport.Coordinator{
				NumClients:     kids,
				Initial:        initial,
				Codec:          wire.CodecBinary,
				AcceptPartials: true,
				Metrics:        nodes[i].tm,
				RoundMetrics:   nodes[i].round,
			},
			Retry: transport.RetryConfig{MaxAttempts: 1, Dial: func(a string) (net.Conn, error) {
				c, err := net.Dial("tcp", a)
				if err != nil {
					return nil, err
				}
				return tap.wrap(c, roleInteriorUp, nil), nil
			}},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := interior.RunWithListener(iln, nil)
			fail(err)
		}()
	}
	for l, lln := range leafLns {
		node := nodes[treeInteriors+l]
		// Leaf l hangs under interior l mod treeInteriors, where it is
		// child number l / treeInteriors.
		leaf := &transport.Leaf{
			ID:   l / treeInteriors,
			Root: "mem",
			Local: transport.Coordinator{
				NumClients:    perLeaf,
				Initial:       initial,
				Codec:         wire.CodecBinary,
				MinQuorum:     int(math.Ceil(treeQuorumShare * float64(perLeaf))),
				MaxUpdateNorm: treeMaxNorm,
				Metrics:       node.tm,
				RoundMetrics:  node.round,
			},
			Retry: transport.RetryConfig{MaxAttempts: 1, Dial: interiorLns[l%treeInteriors].Dial},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := leaf.RunWithListener(lln, nil)
			fail(err)
		}()
		for i := 0; i < perLeaf; i++ {
			var c fl.Client = &offsetClient{id: l*perLeaf + i}
			if shape.client != nil {
				c = shape.client(l*perLeaf + i)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				fail(transport.RunClientRetry("mem", c, transport.RetryConfig{
					MaxAttempts: 1, Codec: wire.CodecBinary, Dial: lln.Dial,
				}))
			}()
		}
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	run.setup = run.firstSend.Sub(start)
	run.global = final
	for _, n := range nodes[treeInteriors:] {
		run.dropped += int(n.round.ClientsDropped.Value()) // client-rounds lost at the leaves
	}
	// per-round allocation deltas: the first entry is absolute.
	for i := len(run.allocMiB) - 1; i > 0; i-- {
		run.allocMiB[i] -= run.allocMiB[i-1]
	}
	run.allocMiB = run.allocMiB[1:]
	return run, nil
}

// digestTally checks that repeated tree federations reproduce the
// first run's digest bit for bit.
type digestTally struct {
	first    string
	runs     int
	mismatch int
}

func (d *digestTally) add(digest string) {
	if d.runs == 0 {
		d.first = digest
	} else if digest != d.first {
		d.mismatch++
	}
	d.runs++
}

func (d *digestTally) check(rep *report) {
	rep.check("repeat_digest", d.mismatch == 0, "%d of %d repeated runs reproduce the first digest %.16s…",
		d.runs-1-d.mismatch, d.runs-1, d.first)
}

// checkTree adds the fed-tree correctness checks for one federation.
func checkTree(rep *report, run *treeRun, want []float64) {
	worst := 0.0
	if len(run.global) != len(want) {
		worst = math.Inf(1)
	} else {
		for j, v := range run.global {
			worst = max(worst, math.Abs(v-want[j])/max(1, math.Abs(want[j])))
		}
	}
	rep.check("tree_closed_form", worst <= treeTol, "max relative deviation from the closed-form mean %.3g (tolerance %.0e)", worst, treeTol)
	minCov := 1.0
	for _, c := range run.coverage {
		minCov = min(minCov, c)
	}
	rep.check("tree_coverage", minCov == 1 && len(run.coverage) > 0, "minimum round coverage %.4f over %d rounds", minCov, len(run.coverage))
}

// runTree is the fed-tree workload.
func runTree(opts options) (*report, error) {
	if opts.trace {
		return runTreeTraced(opts)
	}
	shape := treeShapeFor(opts)
	initial := fullScaleInitial(opts.seed)
	want := closedForm(initial, shape.clients, shape.rounds)
	dir := filepath.Join(opts.out, "run", fmt.Sprintf("fed-tree-%d", os.Getpid()))
	defer os.RemoveAll(dir)

	rep := &report{metrics: map[string]float64{}}
	rep.check("tree_dim", len(initial) == treeDim, "update has %d parameters (want %d)", len(initial), treeDim)
	settleHeap()
	heap := watchHeap()
	var setups, roundMs, allocs []float64
	var digests digestTally
	feds, err := repeat(treeMinFeds(opts), opts.seconds, func(i int) error {
		run, err := runTreeFed(shape, initial, dir, nil, heap)
		if err != nil {
			return err
		}
		setups = append(setups, run.setup.Seconds())
		roundMs = append(roundMs, run.roundMs...)
		allocs = append(allocs, run.allocMiB...)
		rep.attempted += shape.clients * shape.rounds
		rep.failed += run.dropped
		digests.add(digestFloats(run.global))
		if i == 0 {
			checkTree(rep, run, want)
			rep.note("digest %s (final global, SHA-256)", digests.first)
		}
		return nil
	})
	peak := heap.Stop()
	if err != nil {
		return nil, err
	}
	digests.check(rep)
	// Extra one-round federations sample setup more often than the
	// measured federations alone would.
	for len(setups) < treeSetups && !opts.tiny {
		run, err := runTreeFed(treeShape{clients: shape.clients, rounds: 1}, initial, dir, nil, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, run.setup.Seconds())
	}

	total := sum(roundMs) / 1000
	rounds := float64(len(roundMs))
	weight := 0
	for id := 0; id < shape.clients; id++ {
		weight += clientWeight(id)
	}
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["train_samples_per_s"] = float64(weight) * rounds / total
	rep.metrics["round_ms_p50"] = percentile(roundMs, 0.5)
	rep.metrics["round_ms_p90"] = percentile(roundMs, 0.9)
	rep.metrics["updates_per_s"] = float64(shape.clients) * rounds / total
	rep.metrics["peak_heap_mb"] = peak
	rep.metrics["alloc_mb_per_round"] = median(allocs)
	rep.note("rounds measured %d over %d federations", len(roundMs), feds)
	return rep, nil
}
