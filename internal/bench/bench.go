// Package bench defines the repository's tracked performance workloads in
// one place, so `go test -bench` (see bench_test.go) and the cmd/cipbench
// regression harness (`make bench` → BENCH_PR3.json) measure the same code.
// Kernel-level shapes mirror the canonical micro-benchmarks in
// internal/tensor and internal/nn; Fig4ClientsSweep is the end-to-end
// federation workload the compute runtime exists for.
package bench

import (
	"math/rand"
	"testing"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/robust"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

// Spec is one tracked workload: a benchmark body plus the floating-point
// work per op, so the harness can report GFLOP/s (0 disables the rate).
type Spec struct {
	Name  string
	FLOPs float64
	Fn    func(b *testing.B)
}

// convLoweringFLOPs counts the three GEMM-shaped passes in one ConvLowering
// op: 16·16·16 output positions, k = 8·3·3, 16 output channels.
const convLoweringFLOPs = 3 * 2 * (16 * 16 * 16) * (8 * 3 * 3) * 16

// Specs returns the tracked workloads in reporting order. The -f32
// variants run the same shapes through the float32 compute tier; the
// precision gate in cmd/cipbench compares each pair.
func Specs() []Spec {
	return []Spec{
		{"MatMul256", 2 * 256 * 256 * 256, MatMul256},
		{"MatMul256-f32", 2 * 256 * 256 * 256, MatMul256F32},
		{"MatMulTransB128", 2 * 128 * 128 * 128, MatMulTransB128},
		{"ConvLowering", convLoweringFLOPs, ConvLowering},
		{"ConvLowering-f32", convLoweringFLOPs, ConvLoweringF32},
		{"ConvForwardBackward", 0, ConvForwardBackward},
		{"ReluFwd1M", 0, ReluFwd1M},
		{"ReluFwd1M-f32", 0, ReluFwd1MF32},
		{"ReluGate1M", 0, ReluGate1M},
		{"ReluGate1M-f32", 0, ReluGate1MF32},
		{"BiasAxpy1M", 0, BiasAxpy1M},
		{"BiasAxpy1M-f32", 0, BiasAxpy1MF32},
		{"Fig4ClientsSweep", 0, Fig4ClientsSweep},
		{"Fig4ClientsSweep-f32", 0, Fig4ClientsSweepF32},
		{"RobustAggMean", 0, RobustAggMean},
		{"RobustAggMedian", 0, RobustAggMedian},
		{"RobustAggTrimmed", 0, RobustAggTrimmed},
		{"RobustAggClipped", 0, RobustAggClipped},
		{"RobustRoundMean", 0, RobustRoundMean},
		{"RobustRoundMedian", 0, RobustRoundMedian},
		{"RobustRoundTrimmed", 0, RobustRoundTrimmed},
		{"WireBinaryDecode", 0, WireBinaryDecode},
		{"WireTopK8Decode", 0, WireTopK8Decode},
		{"WireTopK16Decode", 0, WireTopK16Decode},
	}
}

func benchMats(n int) (*tensor.Tensor, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(1))
	a, b := tensor.New(n, n), tensor.New(n, n)
	a.RandNormal(rng, 0, 1)
	b.RandNormal(rng, 0, 1)
	return a, b
}

func benchMats32(n int) (*tensor.Tensor32, *tensor.Tensor32) {
	rng := rand.New(rand.NewSource(1))
	a, b := tensor.New32(n, n), tensor.New32(n, n)
	a.RandNormal(rng, 0, 1)
	b.RandNormal(rng, 0, 1)
	return a, b
}

// withF32 runs a tracked workload under the float32 compute tier,
// restoring the f64 default afterwards so neighboring workloads are
// unaffected.
func withF32(fn func(b *testing.B)) func(b *testing.B) {
	return func(b *testing.B) {
		tensor.SetPrecision(tensor.F32)
		defer tensor.SetPrecision(tensor.F64)
		fn(b)
	}
}

// MatMul256 is the headline dense GEMM: 256×256 · 256×256.
func MatMul256(b *testing.B) {
	x, y := benchMats(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

// MatMul256F32 is the same headline GEMM on the float32 tier — the
// precision gate asserts it runs ≥2x faster than MatMul256.
func MatMul256F32(b *testing.B) {
	x, y := benchMats32(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul32(x, y)
	}
}

// MatMulTransB128 is the dense layer's forward shape: a · bᵀ at 128.
func MatMulTransB128(b *testing.B) {
	x, y := benchMats(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulTransB(x, y)
	}
}

// ConvLowering is the conv layer's full compute pipeline on pooled buffers:
// the implicit-GEMM forward with fused bias, the weight- and bias-gradient
// pass, and the input-gradient pass. It keeps the name it had when it
// timed the im2col lowering, so bench reports stay comparable across that
// change. The padded input comes from a step arena that x is adopted
// into, as in training, so steady state allocates nothing.
func ConvLowering(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := tensor.ConvGeom{InC: 8, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	const n, outC = 16, 16
	k := g.InC * g.KH * g.KW
	x := tensor.New(n, g.InC, g.InH, g.InW)
	x.RandNormal(rng, 0, 1)
	w := tensor.New(outC, k)
	w.RandNormal(rng, 0, 1)
	bias := make([]float64, outC)
	out := tensor.New(n, outC, g.OutH(), g.OutW())
	dW, dB := tensor.New(outC, k), make([]float64, outC)
	dx := tensor.New(n, g.InC, g.InH, g.InW)
	var a tensor.Arena
	a.Adopt(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset()
		padded := tensor.ConvForwardInto(out, x, w, bias, g)
		dW.Zero()
		tensor.ConvParamGrads(dW, dB, padded, out, g) // out stands in for the output gradient
		tensor.ConvInputGradInto(dx, out, w, g)
	}
}

// ConvLoweringF32 is ConvLowering under the F32 policy: identical f64
// tensors, but every GEMM narrows to the float32 kernel internally — the
// mixed path a conv net actually exercises when trained with -precision f32.
func ConvLoweringF32(b *testing.B) { withF32(ConvLowering)(b) }

// reluBench1M builds the 1M-element activation tensors the elementwise
// micro-benchmarks share.
const reluLen = 1 << 20

// ReluFwd1M is the f64 rectifier forward pass over 1M elements.
func ReluFwd1M(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x, dst := tensor.New(reluLen), tensor.New(reluLen)
	x.RandNormal(rng, 0, 1)
	b.SetBytes(reluLen * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.ReluInto(dst, x)
	}
}

// ReluFwd1MF32 is the float32 rectifier forward pass over 1M elements.
func ReluFwd1MF32(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x, dst := tensor.New32(reluLen), tensor.New32(reluLen)
	x.RandNormal(rng, 0, 1)
	b.SetBytes(reluLen * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Relu32Into(dst, x)
	}
}

// ReluGate1M is the f64 ReLU backward gate over 1M elements.
func ReluGate1M(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	y, g, dst := tensor.New(reluLen), tensor.New(reluLen), tensor.New(reluLen)
	y.RandNormal(rng, 0, 1)
	g.RandNormal(rng, 0, 1)
	b.SetBytes(reluLen * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.ReluGateInto(dst, y, g)
	}
}

// ReluGate1MF32 is the float32 ReLU backward gate over 1M elements.
func ReluGate1MF32(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	y, g, dst := tensor.New32(reluLen), tensor.New32(reluLen), tensor.New32(reluLen)
	y.RandNormal(rng, 0, 1)
	g.RandNormal(rng, 0, 1)
	b.SetBytes(reluLen * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.ReluGate32Into(dst, y, g)
	}
}

// BiasAxpy1M is the f64 fused axpy (a += α·b) over 1M elements — the
// SGD-step and bias-gradient shape.
func BiasAxpy1M(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x, y := tensor.New(reluLen), tensor.New(reluLen)
	x.RandNormal(rng, 0, 1)
	y.RandNormal(rng, 0, 1)
	b.SetBytes(reluLen * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.AxpyInPlace(x, 1e-9, y)
	}
}

// BiasAxpy1MF32 is the float32 fused axpy over 1M elements.
func BiasAxpy1MF32(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x, y := tensor.New32(reluLen), tensor.New32(reluLen)
	x.RandNormal(rng, 0, 1)
	y.RandNormal(rng, 0, 1)
	b.SetBytes(reluLen * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Axpy32InPlace(x, 1e-9, y)
	}
}

// ConvForwardBackward is one Conv2D layer's train-mode forward + backward,
// the path the scratch arena exists for.
func ConvForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := tensor.ConvGeom{InC: 8, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	c := nn.NewConv2D(rng, g, 16)
	x := tensor.New(16, 8, 16, 16)
	x.RandNormal(rng, 0, 1)
	grad := tensor.New(16, 16, 16, 16)
	grad.RandNormal(rng, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.ZeroGrads(c.Params())
		_, cache := c.Forward(x, true)
		c.Backward(cache, grad)
	}
}

// Fig4ClientsSweep trains the non-iid FedAvg federations at the core of
// Figure 4's client-count sweep at quick scale — the end-to-end workload
// the kernel, pooling, and parallel-round layers all feed.
func Fig4ClientsSweep(b *testing.B) {
	d, err := datasets.Load(datasets.CIFAR100, datasets.Quick, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range []int{2, 5} {
			if _, err := sweepFederation(d, k, 6); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Fig4ClientsSweepF32 is the same federation sweep under the F32 policy —
// every client's GEMMs run on the float32 tier while updates cross the FL
// boundary as float64.
func Fig4ClientsSweepF32(b *testing.B) { withF32(Fig4ClientsSweep)(b) }

// Fig4AccuracyParity trains the quick 2-client federation once per
// precision and evaluates both global models on the held-out test set.
// cmd/cipbench's precision gate asserts the accuracies agree within
// tolerance, so the f32 tier's speed never comes at Fig. 4 fidelity.
func Fig4AccuracyParity() (acc64, acc32 float64, err error) {
	d, err := datasets.Load(datasets.CIFAR100, datasets.Quick, 1)
	if err != nil {
		return 0, 0, err
	}
	run := func() (float64, error) {
		global, err := sweepFederation(d, 2, 6)
		if err != nil {
			return 0, err
		}
		eval := model.NewClassifier(rand.New(rand.NewSource(2)), model.VGG,
			d.Train.In, d.Train.NumClasses)
		nn.SetFlatParams(eval.Params(), global)
		return fl.Evaluate(eval, d.Test, 32), nil
	}
	if acc64, err = run(); err != nil {
		return 0, 0, err
	}
	tensor.SetPrecision(tensor.F32)
	defer tensor.SetPrecision(tensor.F64)
	if acc32, err = run(); err != nil {
		return 0, 0, err
	}
	return acc64, acc32, nil
}

// robustAggBench measures one robust fold over a 12-client cohort at a
// realistic model dimensionality (200k parameters) — the per-round
// aggregation cost the Byzantine-resilience PR adds on top of training.
func robustAggBench(rule robust.Aggregator) func(b *testing.B) {
	return func(b *testing.B) {
		const n, dim = 12, 200_000
		rng := rand.New(rand.NewSource(5))
		center := make([]float64, dim)
		params := make([][]float64, n)
		weights := make([]float64, n)
		for i := range params {
			row := make([]float64, dim)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			params[i] = row
			weights[i] = 1
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := rule.Aggregate(center, params, weights); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// RobustAggMean is the aggregation-cost control: the unweighted mean over
// the same cohort the robust rules fold.
func RobustAggMean(b *testing.B) { robustAggBench(robust.Mean{})(b) }

// RobustAggMedian folds the cohort with the coordinate-wise median.
func RobustAggMedian(b *testing.B) { robustAggBench(robust.Median{})(b) }

// RobustAggTrimmed folds the cohort with the 25%-per-tail trimmed mean.
func RobustAggTrimmed(b *testing.B) { robustAggBench(robust.TrimmedMean{Frac: 0.25})(b) }

// RobustAggClipped folds the cohort with the norm-clipped mean.
func RobustAggClipped(b *testing.B) { robustAggBench(robust.ClippedMean{MaxNorm: 10})(b) }

// robustRound runs an identical 6-client quick-scale federation for 3
// rounds under the given policy; comparing the Robust rounds against
// RobustRoundMean isolates the end-to-end round-latency overhead of the
// robust fold plus reputation scoring.
func robustRound(b *testing.B, policy *fl.RoundPolicy) {
	d, err := datasets.Load(datasets.CIFAR100, datasets.Quick, 1)
	if err != nil {
		b.Fatal(err)
	}
	const k, rounds = 6, 3
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		shards := datasets.PartitionIID(d.Train, k, rng)
		clients := make([]fl.Client, k)
		var initial []float64
		for j := 0; j < k; j++ {
			net := model.NewClassifier(rand.New(rand.NewSource(2)), model.VGG,
				d.Train.In, d.Train.NumClasses)
			if initial == nil {
				initial = nn.FlattenParams(net.Params())
			}
			clients[j] = fl.NewLegacyClient(j, net, shards[j], fl.ClientConfig{
				BatchSize:   16,
				LocalEpochs: 1,
				LR:          fl.DecaySchedule(0.05, rounds),
				Momentum:    0.9,
			}, nil, rand.New(rand.NewSource(int64(10+j))))
		}
		srv := fl.NewServer(initial, clients...)
		srv.Policy = policy
		if err := srv.Run(rounds); err != nil {
			b.Fatal(err)
		}
	}
}

// RobustRoundMean is the round-latency control: the same federation under
// plain sample-weighted FedAvg.
func RobustRoundMean(b *testing.B) { robustRound(b, nil) }

// RobustRoundMedian runs the full defense stack (median fold + reputation
// scoring) the byzantine deployments use.
func RobustRoundMedian(b *testing.B) {
	robustRound(b, &fl.RoundPolicy{
		MinQuorum:  3,
		Robust:     robust.Median{},
		Reputation: robust.NewReputation(robust.ReputationConfig{}),
	})
}

// RobustRoundTrimmed is RobustRoundMedian under the trimmed mean.
func RobustRoundTrimmed(b *testing.B) {
	robustRound(b, &fl.RoundPolicy{
		MinQuorum:  3,
		Robust:     robust.TrimmedMean{Frac: 0.25},
		Reputation: robust.NewReputation(robust.ReputationConfig{}),
	})
}

func sweepFederation(d *datasets.Data, k, rounds int) ([]float64, error) {
	ncc := d.Train.NumClasses / 5
	if ncc < 2 {
		ncc = 2
	}
	rng := rand.New(rand.NewSource(1))
	shards := datasets.PartitionByClass(d.Train, k, ncc, rng)
	clients := make([]fl.Client, k)
	var initial []float64
	for i := 0; i < k; i++ {
		net := model.NewClassifier(rand.New(rand.NewSource(2)), model.VGG,
			d.Train.In, d.Train.NumClasses)
		if initial == nil {
			initial = nn.FlattenParams(net.Params())
		}
		clients[i] = fl.NewLegacyClient(i, net, shards[i], fl.ClientConfig{
			BatchSize:   16,
			LocalEpochs: 1,
			LR:          fl.DecaySchedule(0.05, rounds),
			Momentum:    0.9,
		}, nil, rand.New(rand.NewSource(int64(10+i))))
	}
	srv := fl.NewServer(initial, clients...)
	if err := srv.Run(rounds); err != nil {
		return nil, err
	}
	return srv.Global(), nil
}
