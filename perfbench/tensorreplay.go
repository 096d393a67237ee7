package main

import (
	"math/rand"
	"time"

	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

// A training step, for the tensor.* metrics, is one forward and backward
// pass of the dual-channel model at the training batch size: every conv
// layer twice (once per channel) and the head once, with the full input
// gradient as CIP's Step I needs it.

// gemmOp is one GEMM of a training step.
type gemmOp struct {
	run      func()
	flops    float64
	a, b     []float64 // operands the f32 tier narrows
	a32, b32 []float32
}

// stepReplay holds a training step's tensor calls at their exact shapes.
type stepReplay struct {
	gemms  []gemmOp
	im2col []func()
	col2im []func()
}

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.RandNormal(rng, 0, 1)
	return t
}

func (s *stepReplay) gemm(m, n, k int, run func(), a, b *tensor.Tensor) {
	s.gemms = append(s.gemms, gemmOp{run: run, flops: 2 * float64(m) * float64(n) * float64(k),
		a: a.Data, b: b.Data, a32: make([]float32, len(a.Data)), b32: make([]float32, len(b.Data))})
}

func (s *stepReplay) conv(rng *rand.Rand, c *nn.Conv2D, batch int) {
	g := c.Geom
	sp, k := g.OutH()*g.OutW(), g.InC*g.KH*g.KW
	x := randTensor(rng, batch, g.InC, g.InH, g.InW)
	cols := tensor.New(batch*sp, k)
	prod := tensor.New(batch*sp, c.OutC)
	gm := randTensor(rng, batch*sp, c.OutC)
	dW := tensor.New(c.OutC, k)
	gradCols := randTensor(rng, batch*sp, k)
	s.im2col = append(s.im2col, func() { tensor.Im2ColInto(cols, x, g) })
	s.gemm(batch*sp, c.OutC, k, func() { tensor.MatMulTransBBiasInto(prod, cols, c.W.Value, c.B.Value.Data) }, cols, c.W.Value)
	s.gemm(c.OutC, k, batch*sp, func() { tensor.MatMulTransAInto(dW, gm, cols) }, gm, cols)
	s.gemm(batch*sp, k, c.OutC, func() { tensor.MatMulInto(gradCols, gm, c.W.Value) }, gm, c.W.Value)
	s.col2im = append(s.col2im, func() { tensor.Col2Im(gradCols, batch, g) })
}

func (s *stepReplay) dense(rng *rand.Rand, d *nn.Dense, batch int) {
	x := randTensor(rng, batch, d.In)
	out := tensor.New(batch, d.Out)
	g := randTensor(rng, batch, d.Out)
	dW := tensor.New(d.Out, d.In)
	s.gemm(batch, d.Out, d.In, func() { tensor.MatMulTransBBiasInto(out, x, d.W.Value, d.B.Value.Data) }, x, d.W.Value)
	s.gemm(d.Out, d.In, batch, func() { tensor.MatMulTransAInto(dW, g, x) }, g, x)
	s.gemm(batch, d.In, d.Out, func() { tensor.MatMul(g, d.W.Value) }, g, d.W.Value)
}

// replayTensor times the step's GEMMs, im2col and col2im calls (and, under
// f32, the operand narrowing) and records the tensor.* metrics.
func replayTensor(m map[string]float64, dual *core.DualChannelModel, batch int, opts options) {
	rng := rand.New(rand.NewSource(2))
	var s stepReplay
	for ch := 0; ch < 2; ch++ {
		for _, l := range dual.Backbone.Net.(*nn.Sequential).Layers {
			if t, ok := l.(*tracedLayer); ok {
				l = t.inner
			}
			if c, ok := l.(*nn.Conv2D); ok {
				s.conv(rng, c, batch)
			}
		}
	}
	s.dense(rng, dual.Head, batch)

	f32 := tensor.CurrentPrecision() == tensor.F32
	var gemmMs, im2colMs, col2imMs, narrowMs, allocB []float64
	var flops float64
	for _, op := range s.gemms {
		flops += op.flops
	}
	timeAll := func(fns []func()) float64 {
		t0 := time.Now()
		for _, f := range fns {
			f()
		}
		return ms(time.Since(t0))
	}
	for i := 0; i < replayReps(opts); i++ {
		_, a0 := heapStats()
		t0 := time.Now()
		for _, op := range s.gemms {
			op.run()
		}
		gemmMs = append(gemmMs, ms(time.Since(t0)))
		im2colMs = append(im2colMs, timeAll(s.im2col))
		col2imMs = append(col2imMs, timeAll(s.col2im))
		_, a1 := heapStats()
		allocB = append(allocB, float64(a1-a0))
		if f32 {
			t0 = time.Now()
			for _, op := range s.gemms {
				tensor.NarrowSlice(op.a32, op.a)
				tensor.NarrowSlice(op.b32, op.b)
			}
			narrowMs = append(narrowMs, ms(time.Since(t0)))
		}
	}
	m["tensor.gemm_ms"] = median(gemmMs)
	m["tensor.gemm_gflops"] = flops / (median(gemmMs) / 1000) / 1e9
	m["tensor.im2col_ms"] = median(im2colMs)
	m["tensor.col2im_ms"] = median(col2imMs)
	m["tensor.narrow_ms"] = median(narrowMs)
	m["tensor.alloc_bytes"] = median(allocB)
}
