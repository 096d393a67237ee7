package fl

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

// TestLegacyStepAllocationsPinned pins the heap allocation of one
// PlainStep batch of a legacy TinyVGG client at batch 16 after a warm-up
// batch in the same step arena, which serves every activation and
// gradient.
func TestLegacyStepAllocationsPinned(t *testing.T) {
	const budget = 128 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer tensor.SetPrecision(tensor.F64)
	d, err := datasets.Load(datasets.CIFAR100, datasets.Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	shard := d.Train.Subset([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	for _, p := range []tensor.Precision{tensor.F64, tensor.F32} {
		t.Run(p.String(), func(t *testing.T) {
			tensor.SetPrecision(p)
			net := model.NewClassifier(rand.New(rand.NewSource(2)), model.VGG, shard.In, shard.NumClasses)
			c := NewLegacyClient(0, net, shard, ClientConfig{BatchSize: 16, Momentum: 0.9},
				nil, rand.New(rand.NewSource(3)))
			a := new(tensor.Arena)
			batch := func() {
				if _, err := trainEpochs(a, c.net, c.opt, c.step, c.data, c.cfg, c.rng); err != nil {
					t.Fatal(err)
				}
			}
			batch() // warm-up
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			batch()
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("one PlainStep batch allocated %d B", got)
			if got > budget {
				t.Fatalf("one PlainStep batch allocated %d B, want ≤ %d B", got, budget)
			}
		})
	}
}

// TestLegacyClientsKeepNoStepMemory trains one round on each of several
// legacy clients in turn and requires the live heap to grow per client by
// no more than the client's momentum buffers: TrainLocal gives its step
// arena back when it returns.
func TestLegacyClientsKeepNoStepMemory(t *testing.T) {
	const k = 4
	d, err := datasets.Load(datasets.CIFAR100, datasets.Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 20)
	for i := range idx {
		idx[i] = i
	}
	clients := make([]*LegacyClient, k)
	for i := range clients {
		net := model.NewClassifier(rand.New(rand.NewSource(2)), model.VGG, d.Train.In, d.Train.NumClasses)
		clients[i] = NewLegacyClient(i, net, d.Train.Subset(idx),
			ClientConfig{BatchSize: 16, Momentum: 0.9}, nil, rand.New(rand.NewSource(3)))
	}
	global := nn.FlattenParams(clients[0].net.Params())
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
