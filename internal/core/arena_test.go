package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

// arenaTestClient builds a CIP client over dual-channel TinyVGG on the
// first n quick CIFAR-100 training samples, with α 0.7 and λ_m > 0.
func arenaTestClient(t *testing.T, n int) *Client {
	t.Helper()
	d, err := datasets.Load(datasets.CIFAR100, datasets.Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	shard := d.Train.Subset(idx)
	dual := NewDualChannelModel(rand.New(rand.NewSource(2)), model.VGG, shard.In, shard.NumClasses)
	cfg := TrainConfig{
		Alpha: 0.7, LambdaT: 1e-6, LambdaM: 0.3, PerturbLR: 0.02,
		BatchSize: 16, Momentum: 0.9,
	}
	return NewClient(0, dual, shard, cfg, 7, rand.New(rand.NewSource(3)))
}

// arenaTrace is what a run of the CIP training loops observably produces.
type arenaTrace struct {
	losses []float64 // Step I loss, calibration cap, Step II loss per round
	params []float64
	t      []float64
}

// traceRounds runs Step I, the Eq. 4 calibration and Step II for a few
// rounds, then one whole client round, all drawing step tensors from arena
// a (nil: the heap).
func traceRounds(t *testing.T, a *tensor.Arena, c *Client) arenaTrace {
	t.Helper()
	var tr arenaTrace
	for r := 0; r < 2; r++ {
		tr.losses = append(tr.losses, stepI(a, c.m, c.data, c.cfg, c.rng))
		cfg := c.cfg
		cfg.OriginalLossCap = fl.MeanLossIn(a, c.m.WithT(c.m.ZeroT()), c.cal, 64)
		tr.losses = append(tr.losses, cfg.OriginalLossCap)
		tr.losses = append(tr.losses, stepII(a, c.m, c.data, cfg, c.opt, c.rng))
	}
	u, err := c.trainLocal(a, 2, nn.FlattenParams(c.m.Params()))
	if err != nil {
		t.Fatal(err)
	}
	tr.losses = append(tr.losses, u.TrainLoss)
	tr.params = u.Params
	tr.t = append([]float64(nil), c.pert.T.Data...)
	return tr
}

func requireBitIdentical(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v through the arena, %v on the heap", what, i, got[i], want[i])
		}
	}
}

// TestArenaMatchesHeap trains the same CIP client twice, once through its
// step arena and once on the heap, and requires bit-identical parameters,
// perturbation and losses at both precisions. Under the race build every
// arena hand-out is NaN-filled, so a step that reads storage it did not
// write fails here. The 44-sample shard leaves a 40-sample training split,
// so each epoch ends in a smaller batch that reuses larger slots.
func TestArenaMatchesHeap(t *testing.T) {
	defer tensor.SetPrecision(tensor.F64)
	for _, p := range []tensor.Precision{tensor.F64, tensor.F32} {
		t.Run(p.String(), func(t *testing.T) {
			tensor.SetPrecision(p)
			arena := traceRounds(t, new(tensor.Arena), arenaTestClient(t, 44))
			heap := traceRounds(t, nil, arenaTestClient(t, 44))
			requireBitIdentical(t, "losses", arena.losses, heap.losses)
			requireBitIdentical(t, "params", arena.params, heap.params)
			requireBitIdentical(t, "t", arena.t, heap.t)
		})
	}
}

// TestStepIIAllocationsPinned pins the heap allocation of one Step II
// batch at batch 16 after a warm-up batch in the same step arena, which
// serves every activation and gradient, so what is left is the batch
// itself and a few small headers.
func TestStepIIAllocationsPinned(t *testing.T) {
	const budget = 128 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer tensor.SetPrecision(tensor.F64)
	for _, p := range []tensor.Precision{tensor.F64, tensor.F32} {
		t.Run(p.String(), func(t *testing.T) {
			tensor.SetPrecision(p)
			c := arenaTestClient(t, 16) // one batch, no calibration split
			a := new(tensor.Arena)
			stepII(a, c.m, c.data, c.cfg, c.opt, c.rng) // warm-up
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			stepII(a, c.m, c.data, c.cfg, c.opt, c.rng)
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("one Step II batch allocated %d B", got)
			if got > budget {
				t.Fatalf("one Step II batch allocated %d B, want ≤ %d B", got, budget)
			}
		})
	}
}

// TestClientsKeepNoStepMemory trains one round on each of several CIP
// clients in turn and requires the live heap to grow per client by no more
// than the client's momentum buffers: TrainLocal gives its step arena back
// when it returns, so step memory follows the number of clients training at
// once, not the number of clients.
func TestClientsKeepNoStepMemory(t *testing.T) {
	const k = 4
	clients := make([]*Client, k)
	for i := range clients {
		clients[i] = arenaTestClient(t, 44)
	}
	global := nn.FlattenParams(clients[0].m.Params())
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// The first round leaves an arena on the free list for the others.
	if _, err := clients[0].TrainLocal(0, global); err != nil {
		t.Fatal(err)
	}
	base := live()
	for _, c := range clients[1:] {
		if _, err := c.TrainLocal(0, global); err != nil {
			t.Fatal(err)
		}
	}
	perClient := (live() - base) / (k - 1)
	runtime.KeepAlive(clients)
	momentum := int64(8 * len(global))
	t.Logf("live heap grew %d B per client; momentum buffers %d B", perClient, momentum)
	if perClient > momentum+64<<10 {
		t.Fatalf("live heap grew %d B per trained client, want ≤ %d B (its momentum buffers and 64 KiB)",
			perClient, momentum+64<<10)
	}
}
