package transport

// The depth-3 chaos harness (`make treechaos` runs TestTreeChaos*): a
// root ← 2 interiors ← 4 leaves tree training real models rides out a
// seeded schedule of 2 leaf kills, 1 interior kill (restarting its whole
// failure domain), and a partition in front of the first replacement —
// and must land within 2 accuracy points of the fault-free flat baseline
// with full final-round coverage.

import (
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/faults"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/telemetry"
)

// buildChaosClients is buildClients with a larger, higher-signal dataset:
// the chaos acceptance bound (±2 accuracy points vs the fault-free flat
// baseline) needs both runs at their convergence plateau and an eval set
// where one sample moves accuracy by a third of a point, not 1.7 points.
func buildChaosClients(t *testing.T, k int) ([]fl.Client, []float64, *datasets.Dataset) {
	t.Helper()
	train, test, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 3, Train: 240, Test: 300, C: 1, H: 6, W: 6,
		Signal: 0.8, Noise: 0.15, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	shards := datasets.PartitionIID(train, k, rand.New(rand.NewSource(1)))
	clients := make([]fl.Client, k)
	var initial []float64
	for i := 0; i < k; i++ {
		net := model.NewClassifier(rand.New(rand.NewSource(7)), model.VGG, train.In, train.NumClasses)
		if initial == nil {
			initial = nn.FlattenParams(net.Params())
		}
		clients[i] = fl.NewLegacyClient(i, net, shards[i], fl.ClientConfig{
			BatchSize: 16, LR: func(int) float64 { return 0.05 }, Momentum: 0.9,
		}, nil, rand.New(rand.NewSource(int64(i+50))))
	}
	return clients, initial, test
}

// chaosNode is one killable tree node instance: closing stop tears it
// down (ErrClientStopped), wait joins it and — for client-facing leaves —
// its shard's client goroutines, so the same client objects can be
// handed to a replacement instance without a data race.
type chaosNode struct {
	stop chan struct{}
	wait func() error
	errs []error
}

// TestTreeChaosDepth3 is the ISSUE 10 acceptance scenario.
func TestTreeChaosDepth3(t *testing.T) {
	const (
		interiors, leavesPerInt, perLeaf = 2, 2, 2
		rounds                           = 10
		killWindow                       = 5 // kills land in rounds 1..killWindow
	)
	k := interiors * leavesPerInt * perLeaf

	// Fault-free flat baseline over an identically seeded roster.
	refClients, initial, test := buildChaosClients(t, k)
	refSrv := fl.NewServer(initial, refClients...)
	if err := refSrv.Run(rounds); err != nil {
		t.Fatal(err)
	}
	refAcc := evalAccuracy(t, test, refSrv.Global())

	treeClients, initial2, _ := buildChaosClients(t, k)

	// Seeded kill plans. The two leaf kills target leaves 2 and 3 — both
	// under interior 1 — and must land in distinct rounds: if both of a
	// node's children die in the same round it has zero valid updates and
	// nothing left to degrade with. The interior kill targets interior 0,
	// whose failure domain (itself plus leaves 0 and 1) is disjoint, so
	// the schedules may overlap freely.
	var leafPlan faults.KillPlan
	for seed := int64(11); ; seed++ {
		p := faults.DrawKillPlan(rand.New(rand.NewSource(seed)), killWindow, []int{2, 3}, 2)
		distinct := true
		for r := 0; r < killWindow; r++ {
			if len(p.Victims(r)) > 1 {
				distinct = false
				break
			}
		}
		if distinct {
			leafPlan = p
			break
		}
	}
	intPlan := faults.DrawKillPlan(rand.New(rand.NewSource(13)), killWindow, []int{0}, 1)

	rootReg := telemetry.NewRegistry()
	rootRM := fl.NewMetrics(rootReg)
	intReg := telemetry.NewRegistry()
	intRM := fl.NewMetrics(intReg) // shared by both interiors

	// Orchestration state, mutated only under mu: AfterRound runs on the
	// root's goroutine while the registry is built on the test's, and TCP
	// carries no happens-before edge the race detector can see.
	var (
		mu        sync.Mutex
		leaves    [4]*chaosNode
		interior0 *chaosNode
		intAddrs  [2]string
		restarts  = map[int][]func(){}
		coverage  [rounds]float64
		part      = &faults.Partition{}
		firstLeaf = true
	)

	shardFor := func(l int) []fl.Client { return treeClients[l*perLeaf : (l+1)*perLeaf] }
	launchShard := func(l int, dial func(string) (net.Conn, error)) *chaosNode {
		stop := make(chan struct{})
		leaf := &Leaf{
			ID: l % leavesPerInt, Root: intAddrs[l/leavesPerInt],
			Local: Coordinator{
				NumClients: perLeaf,
				Initial:    append([]float64(nil), initial2...),
			},
			Retry: RetryConfig{MaxAttempts: 10, BaseDelay: 50 * time.Millisecond,
				Stop: stop, Dial: dial, Rng: rand.New(rand.NewSource(int64(100 + l)))},
		}
		errs := make([]error, perLeaf)
		return &chaosNode{stop: stop, wait: startLeaf(t, leaf, shardFor(l), errs), errs: errs}
	}
	launchInterior := func(id int, rootAddr string) *chaosNode {
		stop := make(chan struct{})
		node := &Leaf{
			ID: id, Root: rootAddr,
			Local: Coordinator{
				NumClients: leavesPerInt, MinQuorum: 1,
				RoundTimeout: 2 * time.Second, RoundMetrics: intRM,
				Initial:        append([]float64(nil), initial2...),
				AcceptPartials: true, AcceptRejoins: true,
			},
			Retry: RetryConfig{MaxAttempts: 10, BaseDelay: 50 * time.Millisecond,
				Stop: stop, Rng: rand.New(rand.NewSource(int64(200 + id)))},
		}
		addr, wait := startNode(t, node)
		intAddrs[id] = addr
		return &chaosNode{stop: stop, wait: wait}
	}
	// restartLeaf tears down the old instance and brings up a replacement
	// over the same client objects; the first replacement's parent link
	// starts partitioned and heals one round later.
	restartLeaf := func(l, round int) {
		leaves[l].wait() //nolint:errcheck — ErrClientStopped by construction
		var dial func(string) (net.Conn, error)
		if firstLeaf {
			firstLeaf = false
			part.Split()
			dial = part.Gate(nil)
			restarts[round+1] = append(restarts[round+1], part.Heal)
		}
		leaves[l] = launchShard(l, dial)
	}

	var rootAddr string
	root := &Coordinator{
		NumClients: interiors, Rounds: rounds,
		Initial:        append([]float64(nil), initial2...),
		AcceptPartials: true, AcceptRejoins: true,
		MinQuorum: 1, RoundTimeout: 2 * time.Second,
		RoundMetrics: rootRM,
	}
	root.AfterRound = func(round int) error {
		mu.Lock()
		defer mu.Unlock()
		coverage[round] = rootRM.RoundCoverage.Value()
		reassembled := false
		for _, f := range restarts[round] {
			f()
			reassembled = true
		}
		if reassembled {
			// Give replacements a round boundary's grace: accept their
			// shard clients, redial upward, park as rejoiners.
			time.Sleep(500 * time.Millisecond)
		}
		if round >= 1 && round <= killWindow {
			for _, v := range leafPlan.Victims(round - 1) {
				v := v
				close(leaves[v].stop)
				restarts[round+1] = append(restarts[round+1], func() { restartLeaf(v, round+1) })
			}
			if len(intPlan.Victims(round-1)) > 0 {
				// Failure-domain restart: an interior restart mints a new
				// local session token, so its children cannot simply
				// rejoin — the whole subtree goes down and comes back.
				close(interior0.stop)
				close(leaves[0].stop)
				close(leaves[1].stop)
				restarts[round+1] = append(restarts[round+1], func() {
					interior0.wait() //nolint:errcheck
					leaves[0].wait() //nolint:errcheck
					leaves[1].wait() //nolint:errcheck
					interior0 = launchInterior(0, rootAddr)
					leaves[0] = launchShard(0, nil)
					leaves[1] = launchShard(1, nil)
				})
			}
		}
		return nil
	}

	addr, rootWait := startCoordinator(t, root)
	rootAddr = addr
	mu.Lock()
	interior0 = launchInterior(0, rootAddr)
	interior1 := launchInterior(1, rootAddr)
	for l := 0; l < 4; l++ {
		leaves[l] = launchShard(l, nil)
	}
	mu.Unlock()

	global, rootErr := rootWait()
	if rootErr != nil {
		t.Fatalf("root should survive the kill schedule: %v", rootErr)
	}
	if err := interior1.wait(); err != nil {
		t.Fatalf("interior 1: %v", err)
	}
	mu.Lock()
	finalInt0, finalLeaves := interior0, leaves
	mu.Unlock()
	if err := finalInt0.wait(); err != nil {
		t.Fatalf("restarted interior 0: %v", err)
	}
	for l, n := range finalLeaves {
		if err := n.wait(); err != nil {
			t.Fatalf("final instance of leaf %d: %v", l, err)
		}
		for i, err := range n.errs {
			if err != nil {
				t.Fatalf("final leaf %d client %d: %v", l, i, err)
			}
		}
	}

	acc := evalAccuracy(t, test, global)
	if acc < 0.35 {
		t.Fatalf("chaos tree accuracy %v, want ≥0.35", acc)
	}
	if diff := math.Abs(acc - refAcc); diff > 0.02 {
		t.Fatalf("chaos tree accuracy %v vs fault-free flat %v (diff %v, want ≤0.02)", acc, refAcc, diff)
	}
	if got := rootRM.TreeShardsLost.Value(); got < 1 {
		t.Fatalf("root recorded %d lost shards, want ≥1 (the interior kill)", got)
	}
	if got := intRM.TreeShardsLost.Value(); got < 1 {
		t.Fatalf("interiors recorded %d lost shards, want ≥1 (the leaf kills)", got)
	}
	if coverage[rounds-1] < 0.999 {
		t.Fatalf("final-round coverage %v, want ≈1 (the tree never fully healed)", coverage[rounds-1])
	}
}
