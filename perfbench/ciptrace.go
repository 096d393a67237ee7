package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

// tracedLayer wraps one backbone layer and times its forward and backward
// passes on the owning client's track. It is transparent: the wrapped
// layer's parameters, caches and arithmetic are untouched, and it passes
// nn.ParamBackprop through, so a first layer still skips its input
// gradient when trained through nn.TrainBackward.
type tracedLayer struct {
	inner    nn.Layer
	fwd, bwd string
	k        *track
}

func (l *tracedLayer) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, nn.Cache) {
	l.k.begin(l.fwd)
	y, c := l.inner.Forward(x, train)
	l.k.end()
	return y, c
}

func (l *tracedLayer) Backward(c nn.Cache, g *tensor.Tensor) *tensor.Tensor {
	l.k.begin(l.bwd)
	out := l.inner.Backward(c, g)
	l.k.end()
	return out
}

func (l *tracedLayer) BackwardParams(c nn.Cache, g *tensor.Tensor) {
	l.k.begin(l.bwd)
	if pb, ok := l.inner.(nn.ParamBackprop); ok {
		pb.BackwardParams(c, g)
	} else {
		l.inner.Backward(c, g)
	}
	l.k.end()
}

func (l *tracedLayer) Params() []*nn.Param { return l.inner.Params() }

// layerName names a backbone layer for the nn.* metrics: convolutions are
// numbered in order (conv1, conv2, ...); every ReLU shares "relu".
func layerName(l nn.Layer, convs *int) string {
	switch l.(type) {
	case *nn.Conv2D:
		*convs++
		return fmt.Sprintf("conv%d", *convs)
	case nn.ReLU:
		return "relu"
	case nn.MaxPool2D:
		return "pool"
	case nn.Flatten:
		return "flatten"
	}
	return fmt.Sprintf("%T", l)
}

// wrapBackbone replaces every layer of the dual-channel backbone with a
// tracedLayer on track k.
func wrapBackbone(dual *core.DualChannelModel, k *track) error {
	seq, ok := dual.Backbone.Net.(*nn.Sequential)
	if !ok {
		return fmt.Errorf("backbone is %T, want *nn.Sequential", dual.Backbone.Net)
	}
	convs := 0
	for i, l := range seq.Layers {
		name := "nn." + layerName(l, &convs)
		seq.Layers[i] = &tracedLayer{inner: l, fwd: name + ".fwd", bwd: name + ".bwd", k: k}
	}
	return nil
}

// replayClient trains exactly as core.Client.TrainLocal does — the same
// model, shards, configuration, optimizer settings and RNG — but through
// the public Step I / Step II entry points, so each phase can be timed.
// The traced run's digest check proves the replay is bit-identical.
type replayClient struct {
	c   *core.Client
	cfg core.TrainConfig
	opt *nn.SGD
	rng *rand.Rand
	k   *track
}

func newReplayClient(c *core.Client, rng *rand.Rand, k *track) (*replayClient, error) {
	if err := wrapBackbone(c.Model().Dual, k); err != nil {
		return nil, err
	}
	cfg := c.Config()
	return &replayClient{c: c, cfg: cfg, rng: rng, k: k,
		opt: &nn.SGD{LR: cfg.LR(0), Momentum: cfg.Momentum}}, nil
}

func (r *replayClient) ID() int         { return r.c.ID() }
func (r *replayClient) NumSamples() int { return r.c.NumSamples() }

func (r *replayClient) TrainLocal(round int, global []float64) (fl.Update, error) {
	r.k.round = round
	r.k.begin("fl.train")
	defer r.k.end()
	m := r.c.Model()
	if err := nn.SetFlatParams(m.Params(), global); err != nil {
		return fl.Update{}, err
	}
	r.opt.LR = r.cfg.LR(round)
	r.k.begin("core.step1")
	core.StepIGeneratePerturbation(m, r.c.Data(), r.cfg, r.rng)
	r.k.end()

	cfg := r.cfg
	if cal := r.c.Calibration(); cfg.LambdaM != 0 && cfg.OriginalLossCap <= 0 && cal != nil {
		r.k.begin("core.calib")
		cfg.OriginalLossCap = fl.MeanLoss(m.WithT(m.ZeroT()), cal, 64)
		r.k.end()
	}
	var loss float64
	for e := 0; e < cfg.LocalEpochs; e++ {
		r.k.begin("core.step2")
		loss = core.StepIILearnModel(m, r.c.Data(), cfg, r.opt, r.rng)
		r.k.end()
	}
	return fl.Update{
		Params:     nn.FlattenParams(m.Params()),
		NumSamples: r.c.Data().Len(),
		TrainLoss:  loss,
	}, nil
}

// runCIPTraced is the traced cip-* run: an untraced federation on the run's
// first data draw, then the same federation traced, whose digests must
// match; then replays of the head, the blend and the tensor kernels at the
// model's exact shapes.
func runCIPTraced(opts options) (*report, error) {
	rounds := cipRounds
	rep := &report{metrics: zeroMetrics()}

	seed := fedSeed(opts.seed, 0)
	plain, err := newCIPFed(seed, rounds, nil)
	if err != nil {
		return nil, err
	}
	var plainSt roundStats
	if err := plain.run(rounds, &plainSt, nil, nil); err != nil {
		return nil, err
	}

	tr := newTracer()
	var tracks []*track
	gets0, misses0, _ := tensor.PoolStats()
	traced, err := newCIPFed(seed, rounds, func(c *core.Client, rng *rand.Rand) (fl.Client, error) {
		k := &track{t: tr, root: -1}
		tracks = append(tracks, k)
		return newReplayClient(c, rng, k)
	})
	if err != nil {
		return nil, err
	}
	roundSpan := -1
	var st roundStats
	err = traced.run(rounds, &st, func(r int) {
		roundSpan = tr.begin("fl.round", r, -1)
		for _, k := range tracks {
			k.root = roundSpan
		}
	}, func(r int, end time.Time) {
		tr.record("fl.aggregate", r, roundSpan, traced.losses.trainEnd, end)
		tr.end(roundSpan)
	})
	if err != nil {
		return nil, err
	}
	gets1, misses1, _ := tensor.PoolStats()

	plainDigest, tracedDigest := plain.digest(), traced.digest()
	checkTracedDigest(rep, tracedDigest, plainDigest)
	// The defense checks belong to the untraced run, which judges several
	// data draws; here the scores are reported only.
	testAcc, miAcc := traced.evaluate()
	rep.attempted = st.updates

	spans := tr.summarize()
	clientRounds := float64(rounds * cipClients)
	m := rep.metrics
	layerMs := func(name string) float64 {
		if s := spans[name]; s != nil {
			return s.TotalMs / float64(s.Count)
		}
		return 0
	}
	for _, l := range []string{"conv1", "conv2", "conv3", "relu", "pool"} {
		m["nn."+l+".fwd_ms"] = layerMs("nn." + l + ".fwd")
		m["nn."+l+".bwd_ms"] = layerMs("nn." + l + ".bwd")
	}
	// Every CIP forward runs the backbone twice (once per channel) and the
	// head once; every backward likewise.
	var fwdCalls, bwdCalls int
	for name, s := range spans {
		switch {
		case strings.HasSuffix(name, ".fwd"):
			fwdCalls += s.Count
		case strings.HasSuffix(name, ".bwd"):
			bwdCalls += s.Count
		}
	}
	headFwd, headBwd := spans["nn.conv1.fwd"].Count/2, spans["nn.conv1.bwd"].Count/2
	m["nn.fwd_calls"] = float64(fwdCalls+headFwd) / clientRounds
	m["nn.bwd_calls"] = float64(bwdCalls+headBwd) / clientRounds

	for _, ph := range []string{"step1", "step2", "calib"} {
		if s := spans["core."+ph]; s != nil {
			m["core."+ph+"_ms"] = s.TotalMs / clientRounds
		}
	}
	m["core.test_acc"] = testAcc
	m["core.mi_attack_acc"] = miAcc

	m["fl.train_ms_p50"] = median(spans["fl.train"].durs)
	var wait []float64
	for _, d := range tr.durationsByTrace("fl.train") {
		lo, hi := d[0], d[0]
		for _, v := range d {
			lo, hi = min(lo, v), max(hi, v)
		}
		wait = append(wait, hi-lo)
	}
	m["fl.straggler_wait_ms"] = mean(wait)
	m["fl.aggregate_ms"] = mean(spans["fl.aggregate"].durs)
	m["datasets.load_ms"] = ms((plain.load + traced.load) / 2)

	batch := traced.clients[0].Config().BatchSize
	dual := traced.clients[0].Model().Dual
	headFwdMs, headBwdMs := replayHead(dual.Head, batch, opts)
	m["nn.head.fwd_ms"], m["nn.head.bwd_ms"] = headFwdMs, headBwdMs
	m["core.blend_ms"] = float64(headFwd) / clientRounds *
		replayBlend(traced.data.Train, traced.clients[0].Perturbation().T, batch, opts)
	replayTensor(m, dual, batch, opts)
	if gets := gets1 - gets0; gets > 0 {
		m["tensor.pool_hit_ratio"] = 1 - float64(misses1-misses0)/float64(gets)
	}

	m["trace.overhead_pct"] = 100 * (median(st.durs)/median(plainSt.durs) - 1)
	m["trace.span_cost_ns"] = spanCostNs()
	path := filepath.Join(opts.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", opts.workload, opts.seed))
	if err := tr.writeJSONL(path); err != nil {
		return nil, err
	}
	rep.note("digest %s (traced = untraced: %v)", tracedDigest, plainDigest == tracedDigest)
	rep.note("trace %d spans written to %s; round p50 traced %.2f ms vs untraced %.2f ms",
		len(tr.spans), path, median(st.durs), median(plainSt.durs))
	addSelfTimes(rep, spans)
	return rep, nil
}

// checkTracedDigest requires the traced run to reproduce the untraced
// run bit for bit: the wrappers and the replay client change no
// arithmetic.
func checkTracedDigest(rep *report, traced, plain string) {
	rep.check("traced_digest", traced == plain, "traced %s, untraced %s", traced, plain)
}

// zeroMetrics starts a traced report with every per-layer metric at zero,
// the value for layers a workload does not exercise.
func zeroMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// addSelfTimes adds one report line per span name: count, total and self
// time (total minus direct children).
func addSelfTimes(rep *report, spans map[string]*spanStat) {
	names := make([]string, 0, len(spans))
	for n := range spans {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := spans[n]
		rep.note("span %-34s count %7d total %10.2f ms self %10.2f ms", n, s.Count, s.TotalMs, s.SelfMs)
	}
}

// replayReps is how many times each replayed call repeats; the per-layer
// figure is the median per call.
func replayReps(opts options) int {
	if opts.tiny {
		return 5
	}
	return 200
}

// replayHead times the dense head's forward and backward at the training
// batch shape. The head is a concrete *nn.Dense field of the dual-channel
// model, so it cannot be wrapped; an identically shaped layer replays it.
func replayHead(head *nn.Dense, batch int, opts options) (fwdMs, bwdMs float64) {
	rng := rand.New(rand.NewSource(1))
	d := nn.NewDense(rng, head.In, head.Out)
	x := tensor.New(batch, head.In)
	x.RandNormal(rng, 0, 1)
	g := tensor.New(batch, head.Out)
	g.RandNormal(rng, 0, 1)
	var fwd, bwd []float64
	for i := 0; i < replayReps(opts); i++ {
		t0 := time.Now()
		_, c := d.Forward(x, true)
		t1 := time.Now()
		d.Backward(c, g)
		t2 := time.Now()
		fwd = append(fwd, ms(t1.Sub(t0)))
		bwd = append(bwd, ms(t2.Sub(t1)))
	}
	return median(fwd), median(bwd)
}

// replayBlend times one Eq. 2 blend of a training batch.
func replayBlend(data *datasets.Dataset, t *tensor.Tensor, batch int, opts options) float64 {
	x, _ := data.Batch(0, min(batch, data.Len()))
	var d []float64
	for i := 0; i < replayReps(opts); i++ {
		t0 := time.Now()
		core.Blend(x, t, cipAlpha, 0, 1)
		d = append(d, ms(time.Since(t0)))
	}
	return median(d)
}
