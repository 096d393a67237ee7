package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"time"

	"github.com/cip-fl/cip/internal/attacks"
	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

// The CIP federation of the cip-* workloads: quick-scale CIFAR-100 split
// IID over two clients, each training a dual-channel TinyVGG with α=0.7
// under the experiments' CIP hyperparameters.
const (
	cipClients = 2
	cipAlpha   = 0.7
	cipRounds  = 30

	// The defense checks. Chance accuracy on the 20-class quick preset is
	// 0.05; a trained global model querying with each client's own t must
	// clear testAccFloor. Ob-MALT picks its threshold attacker-optimally,
	// so it never scores below 0.5; a working defense keeps it within
	// miSlack of a coin flip. Both apply to the median over a run's
	// federations (see fedSeed).
	testAccFloor = 0.1
	miSlack      = 0.1

	// cipSetups is how many extra times a run sets the federation up
	// besides the measured federations; setup_s is the median of all.
	cipSetups = 15
)

// cipTrainConfig is the CIP hyperparameter set of internal/experiments:
// batch 16, SGD with momentum 0.9 and the decaying 0.05 schedule, and the
// λ values rescaled to this scale (DESIGN.md §2).
func cipTrainConfig(rounds int) core.TrainConfig {
	return core.TrainConfig{
		Alpha:     cipAlpha,
		LambdaT:   1e-6,
		LambdaM:   0.3,
		PerturbLR: 0.02,
		BatchSize: 16,
		LR:        fl.DecaySchedule(0.05, rounds),
		Momentum:  0.9,
	}
}

// cipFed is one assembled CIP federation.
type cipFed struct {
	data      *datasets.Data
	clients   []*core.Client
	srv       *fl.Server
	losses    *lossRecorder
	buildDual func() *core.DualChannelModel
	load      time.Duration // datasets.Load
	setup     time.Duration // dataset plus client construction
}

// lossRecorder is the server-side observer: it keeps every client's
// per-round training loss (part of the run digest) and, in traced runs,
// stamps the instant local training ended, which opens the aggregation
// span.
type lossRecorder struct {
	losses   []float64
	trainEnd time.Time
}

func (l *lossRecorder) ObserveRound(_ int, _ []float64, updates []fl.Update) {
	l.trainEnd = time.Now()
	for _, u := range updates {
		l.losses = append(l.losses, u.TrainLoss)
	}
}

// newCIPFed builds the federation from seed. wrap, when non-nil, turns
// each core.Client into the fl.Client the server drives (the traced run's
// replay client); rng is the client's training RNG.
func newCIPFed(seed int64, rounds int, wrap func(c *core.Client, rng *rand.Rand) (fl.Client, error)) (*cipFed, error) {
	start := time.Now()
	data, err := datasets.Load(datasets.CIFAR100, datasets.Quick, seed)
	if err != nil {
		return nil, err
	}
	f := &cipFed{data: data, load: time.Since(start), losses: &lossRecorder{}}
	shards := datasets.PartitionIID(data.Train, cipClients, rand.New(rand.NewSource(seed)))
	f.buildDual = func() *core.DualChannelModel {
		return core.NewDualChannelModel(rand.New(rand.NewSource(seed+1)), model.VGG,
			data.Train.In, data.Train.NumClasses)
	}
	tc := cipTrainConfig(rounds)
	var initial []float64
	flClients := make([]fl.Client, cipClients)
	for i := range flClients {
		dual := f.buildDual()
		if initial == nil {
			initial = nn.FlattenParams(dual.Params())
		}
		rng := rand.New(rand.NewSource(seed + int64(20+i)))
		c := core.NewClient(i, dual, shards[i], tc, core.BlendSeed(seed, i), rng)
		f.clients = append(f.clients, c)
		flClients[i] = c
		if wrap != nil {
			if flClients[i], err = wrap(c, rng); err != nil {
				return nil, err
			}
		}
	}
	f.srv = fl.NewServer(initial, flClients...)
	f.srv.Observers = []fl.RoundObserver{f.losses}
	f.setup = time.Since(start)
	return f, nil
}

// roundStats accumulates what the end-to-end metrics need per round.
type roundStats struct {
	durs    []float64 // ms
	allocs  []float64 // MiB allocated during the round
	updates int
	samples int
	heap    *heapWatch // closes a peak-heap window per round when set
}

func (s *roundStats) add(d time.Duration, allocBytes uint64, updates, samples int) {
	s.heap.lap()
	s.durs = append(s.durs, ms(d))
	s.allocs = append(s.allocs, float64(allocBytes)/mib)
	s.updates += updates
	s.samples += samples
}

// run drives rounds [0, rounds) and records them in st. before/after,
// when non-nil, bracket each round (the traced run's round span).
func (f *cipFed) run(rounds int, st *roundStats, before func(int), after func(int, time.Time)) error {
	// Each client makes one Step I pass and LocalEpochs Step II passes
	// over its training shard per round.
	samples := 0
	for _, c := range f.clients {
		cfg := c.Config()
		samples += (cfg.PerturbEpochs + cfg.LocalEpochs) * c.NumSamples()
	}
	for r := 0; r < rounds; r++ {
		if before != nil {
			before(r)
		}
		_, a0 := heapStats()
		start := time.Now()
		if err := f.srv.RunRound(r); err != nil {
			return err
		}
		end := time.Now()
		_, a1 := heapStats()
		if after != nil {
			after(r, end)
		}
		st.add(end.Sub(start), a1-a0, len(f.clients), samples)
	}
	return nil
}

// evaluate scores the final global model: test accuracy with each client
// querying with its own secret t (averaged over clients), and Ob-MALT
// membership inference querying without t, on the clients' training
// samples against as many unseen test samples.
func (f *cipFed) evaluate() (testAcc, miAcc float64) {
	dual := f.buildDual()
	if err := nn.SetFlatParams(dual.Params(), f.srv.Global()); err != nil {
		panic(err) // same architecture by construction
	}
	var members *datasets.Dataset
	for _, c := range f.clients {
		m := core.NewCIPModel(dual, c.Perturbation().T, cipAlpha)
		testAcc += fl.Evaluate(m, f.data.Test, 64)
		if members == nil {
			members = c.Data()
		} else {
			members = datasets.Concat(members, c.Data())
		}
	}
	testAcc /= float64(len(f.clients))
	n := min(members.Len(), f.data.Test.Len())
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	ref := core.NewCIPModel(dual, f.clients[0].Perturbation().T, cipAlpha)
	query := ref.WithT(ref.ZeroT())
	miAcc = attacks.ObMALT(query, members.Subset(idx), f.data.Test.Subset(idx)).Accuracy()
	return testAcc, miAcc
}

// digest is the SHA-256 of the final global parameters followed by every
// per-round client loss, all as little-endian float64 bits: equal digests
// mean bit-identical training.
func (f *cipFed) digest() string {
	return digestFloats(f.srv.Global(), f.losses.losses)
}

func digestFloats(parts ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range parts {
		for _, v := range p {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fedSeed is the data seed of a run's i-th federation. Each federation
// trains on its own draw: at this scale about one draw in twenty stalls on
// the ln(20) loss plateau until the learning rate has decayed, so the
// defense checks judge the median over a run's federations, and the report
// lists every federation's scores.
func fedSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// checkDefense adds the defense checks over a run's per-federation scores:
// the median test accuracy must clear the floor and the median attack
// accuracy must sit near a coin flip.
func checkDefense(rep *report, accs, mis []float64) {
	low, leaky := 0, 0
	for i := range accs {
		if accs[i] <= testAccFloor {
			low++
		}
		if math.Abs(mis[i]-0.5) > miSlack {
			leaky++
		}
	}
	acc, mi := median(accs), median(mis)
	rep.check("test_acc_floor", acc > testAccFloor, "median test_acc %.4f > %.2f (%d of %d federations below)",
		acc, testAccFloor, low, len(accs))
	rep.check("mi_attack_near_chance", math.Abs(mi-0.5) <= miSlack, "median mi_attack_acc %.4f within %.2f of 0.5 (%d of %d federations outside)",
		mi, miSlack, leaky, len(mis))
}

// runCIP is the cip-train / cip-train-f32 workload.
func runCIP(opts options, prec tensor.Precision) (*report, error) {
	tensor.SetPrecision(prec)
	defer tensor.SetPrecision(tensor.F64)
	if opts.trace {
		return runCIPTraced(opts)
	}
	rounds := cipRounds
	rep := &report{metrics: map[string]float64{}}
	var setups []float64
	// At least 100 measured rounds, so ten or more lie beyond round_ms_p90.
	minFeds := (100 + rounds - 1) / rounds
	if opts.tiny {
		minFeds = 3
	}
	for i := 0; i < cipSetups && !opts.tiny; i++ {
		f, err := newCIPFed(fedSeed(opts.seed, 0), rounds, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, f.setup.Seconds())
	}

	settleHeap()
	heap := watchHeap()
	st := roundStats{heap: heap}
	var accs, mis []float64
	feds, err := repeat(minFeds, opts.seconds, func(i int) error {
		seed := fedSeed(opts.seed, i)
		f, err := newCIPFed(seed, rounds, nil)
		if err != nil {
			return err
		}
		setups = append(setups, f.setup.Seconds())
		if err := f.run(rounds, &st, nil, nil); err != nil {
			return err
		}
		testAcc, miAcc := f.evaluate()
		accs, mis = append(accs, testAcc), append(mis, miAcc)
		rep.note("federation %d (data seed %d): test_acc %.4f, mi_attack_acc %.4f, digest %s",
			i, seed, testAcc, miAcc, f.digest())
		return nil
	})
	peak := heap.Stop()
	if err != nil {
		return nil, err
	}
	checkDefense(rep, accs, mis)

	total := sum(st.durs) / 1000
	rep.attempted = st.updates
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["train_samples_per_s"] = float64(st.samples) / total
	rep.metrics["round_ms_p50"] = percentile(st.durs, 0.5)
	rep.metrics["round_ms_p90"] = percentile(st.durs, 0.9)
	rep.metrics["updates_per_s"] = float64(st.updates) / total
	rep.metrics["peak_heap_mb"] = peak
	rep.metrics["alloc_mb_per_round"] = median(st.allocs)
	rep.note("rounds measured %d over %d federations", len(st.durs), feds)
	return rep, nil
}
