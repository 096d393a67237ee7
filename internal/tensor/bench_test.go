package tensor

import (
	"math/rand"
	"testing"
)

func benchMats(n int) (*Tensor, *Tensor) {
	rng := rand.New(rand.NewSource(1))
	a, b := New(n, n), New(n, n)
	a.RandNormal(rng, 0, 1)
	b.RandNormal(rng, 0, 1)
	return a, b
}

func BenchmarkMatMul64(b *testing.B) {
	x, y := benchMats(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	x, y := benchMats(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMulTransB128(b *testing.B) {
	x, y := benchMats(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulTransB(x, y)
	}
}

// BenchmarkConv measures the full conv-layer compute pipeline (forward
// with fused bias, weight- and bias-gradient pass, input-gradient pass)
// on caller-owned outputs — the path internal/nn's Conv2D runs per
// minibatch. Steady state allocates nothing: every scratch buffer cycles
// through the arena.
func BenchmarkConv(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := ConvGeom{InC: 8, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	const n, outC = 16, 16
	k := g.InC * g.KH * g.KW
	x := New(n, g.InC, g.InH, g.InW)
	x.RandNormal(rng, 0, 1)
	w := New(outC, k)
	w.RandNormal(rng, 0, 1)
	bias := make([]float64, outC)
	out := New(n, outC, g.OutH(), g.OutW())
	dW, dB := New(outC, k), make([]float64, outC)
	dx := New(n, g.InC, g.InH, g.InW)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		padded := ConvForwardInto(out, x, w, bias, g)
		dW.Zero()
		ConvParamGrads(dW, dB, padded, out, g)
		PutTensor(padded)
		ConvInputGradInto(dx, out, w, g)
	}
}
