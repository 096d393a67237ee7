package fl_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/defenses"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
)

// TestLegacyArenaMatchesHeap trains a legacy TinyVGG client twice per
// training step, once through the client's step arena and once on the
// heap, and requires bit-identical parameters and losses: for PlainStep
// and for every defense's TrainStep. Under the race build every arena
// hand-out is NaN-filled, so a step that reads storage it did not write
// fails here. The 40-sample shard ends each epoch in a smaller batch that
// reuses larger slots.
func TestLegacyArenaMatchesHeap(t *testing.T) {
	d, err := datasets.Load(datasets.CIFAR100, datasets.Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 60)
	for i := range idx {
		idx[i] = i
	}
	// Training shuffles the shard in place, so each run gets a fresh copy.
	shard := func() *datasets.Dataset { return d.Train.Subset(idx[:40]) }
	ref := d.Train.Subset(idx[40:])
	k := d.Train.NumClasses
	steps := map[string]func(r *rand.Rand) fl.TrainStep{
		"plain":     func(*rand.Rand) fl.TrainStep { return fl.PlainStep{} },
		"dp":        func(r *rand.Rand) fl.TrainStep { return defenses.NewDPStep(1, 0.5, 4, r) },
		"advreg":    func(r *rand.Rand) fl.TrainStep { return defenses.NewAdvRegStep(0.5, ref, k, r) },
		"mixupmmd":  func(r *rand.Rand) fl.TrainStep { return defenses.NewMixupMMDStep(0.5, 0.4, ref, k, r) },
		"relaxloss": func(*rand.Rand) fl.TrainStep { return defenses.NewRelaxLossStep(3.5) },
	}
	for name, newStep := range steps {
		t.Run(name, func(t *testing.T) {
			run := func(heap bool) (params, losses []float64) {
				net := model.NewClassifier(rand.New(rand.NewSource(2)), model.VGG, d.Train.In, k)
				rng := rand.New(rand.NewSource(3))
				c := fl.NewLegacyClient(0, net, shard(),
					fl.ClientConfig{BatchSize: 16, Momentum: 0.9}, newStep(rng), rng)
				trainLocal := c.TrainLocal
				if heap {
					trainLocal = func(r int, global []float64) (fl.Update, error) {
						return fl.TrainLocalOnHeap(c, r, global)
					}
				}
				global := nn.FlattenParams(net.Params())
				for r := 0; r < 3; r++ {
					u, err := trainLocal(r, global)
					if err != nil {
						t.Fatal(err)
					}
					global = u.Params
					losses = append(losses, u.TrainLoss)
				}
				return global, losses
			}
			ap, al := run(false)
			hp, hl := run(true)
			for _, cmp := range []struct {
				what        string
				arena, heap []float64
			}{{"params", ap, hp}, {"losses", al, hl}} {
				for i := range cmp.arena {
					if math.Float64bits(cmp.arena[i]) != math.Float64bits(cmp.heap[i]) {
						t.Fatalf("%s[%d] = %v through the arena, %v on the heap",
							cmp.what, i, cmp.arena[i], cmp.heap[i])
					}
				}
			}
		})
	}
}
