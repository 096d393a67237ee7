package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// convCase is one convolution to check: geometry, output channels, batch.
type convCase struct {
	name string
	g    ConvGeom
	outC int
	n    int
}

func same3x3(inC, hw int) ConvGeom {
	return ConvGeom{InC: inC, InH: hw, InW: hw, KH: 3, KW: 3, Stride: 1, Pad: 1}
}

// convCases covers every conv layer of the model zoo plus the geometry
// edges of the panel packing and the scatter: output widths that are
// neither a multiple nor a divisor of either tier's panel width, stride
// 2, pad 0, a non-square kernel, K > kcBlock, odd channel counts and
// batch 1.
var convCases = []convCase{
	{"vgg-conv1", same3x3(3, 8), 10, 16},
	{"vgg-conv2", same3x3(10, 8), 10, 16},
	{"vgg-conv3", same3x3(10, 4), 14, 16},
	{"densenet-k72", same3x3(8, 8), 6, 8},
	{"densenet-k126", same3x3(14, 8), 6, 8},
	{"densenet-k180", same3x3(20, 4), 6, 8},
	{"resnet-k144", same3x3(16, 8), 16, 8},
	{"resnet-k144-pool", same3x3(16, 4), 16, 8},
	{"full-12x12", same3x3(3, 12), 10, 4},
	{"full-6x6", same3x3(10, 6), 14, 4},
	{"stride2", ConvGeom{InC: 3, InH: 9, InW: 9, KH: 3, KW: 3, Stride: 2, Pad: 1}, 5, 4},
	{"pad0", ConvGeom{InC: 4, InH: 7, InW: 7, KH: 3, KW: 3, Stride: 1}, 7, 4},
	{"kernel2x3", ConvGeom{InC: 2, InH: 7, InW: 6, KH: 2, KW: 3, Stride: 1, Pad: 1}, 9, 2},
	{"k288", same3x3(32, 6), 7, 2},
	{"outc13", same3x3(5, 8), 13, 4},
	{"batch1", same3x3(3, 5), 5, 1},
}

// convResult is one forward + backward pass's outputs.
type convResult struct {
	out, dx, dW *Tensor
	dB          []float64
}

// convInputs are a pass's operands, with about a tenth of the input and
// output-gradient values exact zeros (as ReLU leaves them), and nonzero
// starting gradients so the accumulation into them is exercised.
type convInputs struct {
	x, w, gy, dW0 *Tensor
	bias, dB0     []float64
}

func newConvInputs(rng *rand.Rand, c convCase) convInputs {
	g := c.g
	k := g.InC * g.KH * g.KW
	in := convInputs{
		x:    New(c.n, g.InC, g.InH, g.InW),
		w:    New(c.outC, k),
		gy:   New(c.n, c.outC, g.OutH(), g.OutW()),
		dW0:  New(c.outC, k),
		bias: make([]float64, c.outC),
		dB0:  make([]float64, c.outC),
	}
	for _, t := range []*Tensor{in.x, in.w, in.gy, in.dW0} {
		t.RandNormal(rng, 0, 1)
	}
	for _, t := range []*Tensor{in.x, in.gy} {
		for i := range t.Data {
			if rng.Intn(10) == 0 {
				t.Data[i] = 0
			}
		}
	}
	for i := range in.bias {
		in.bias[i] = rng.NormFloat64()
		in.dB0[i] = rng.NormFloat64()
	}
	return in
}

func (in convInputs) grads() (*Tensor, []float64) {
	return in.dW0.Clone(), append([]float64(nil), in.dB0...)
}

// loweredConv is the im2col lowering the implicit-GEMM passes replaced:
// im2col, a fused-bias GEMM and an NCHW transpose forward; a reorder of
// the output gradient, the aᵀ·b weight-gradient GEMM, the input-gradient
// GEMM and col2im backward.
func loweredConv(in convInputs, g ConvGeom) convResult {
	n, outC := in.x.Shape[0], in.w.Shape[0]
	k, sp := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	cols := Im2Col(in.x, g)
	prod := New(n*sp, outC)
	MatMulTransBBiasInto(prod, cols, in.w, in.bias)
	out := New(n, outC, g.OutH(), g.OutW())
	gm := New(n*sp, outC)
	for b := 0; b < n; b++ {
		for s := 0; s < sp; s++ {
			for oc := 0; oc < outC; oc++ {
				out.Data[(b*outC+oc)*sp+s] = prod.Data[(b*sp+s)*outC+oc]
				gm.Data[(b*sp+s)*outC+oc] = in.gy.Data[(b*outC+oc)*sp+s]
			}
		}
	}
	dW, dB := in.grads()
	d := New(outC, k)
	MatMulTransAInto(d, gm, cols)
	AddInPlace(dW, d)
	for r := 0; r < n*sp; r++ {
		for oc, v := range gm.Data[r*outC : (r+1)*outC] {
			dB[oc] += v
		}
	}
	gradCols := New(n*sp, k)
	MatMulInto(gradCols, gm, in.w)
	return convResult{out: out, dx: Col2Im(gradCols, n, g), dW: dW, dB: dB}
}

// implicitConv runs the implicit-GEMM passes as Conv2D does; withDX false
// is the first-layer path that skips the input gradient.
func implicitConv(in convInputs, g ConvGeom, withDX bool) convResult {
	n, outC := in.x.Shape[0], in.w.Shape[0]
	out := New(n, outC, g.OutH(), g.OutW())
	padded := ConvForwardInto(out, in.x, in.w, in.bias, g)
	dW, dB := in.grads()
	ConvParamGrads(dW, dB, padded, in.gy, g)
	PutTensor(padded)
	r := convResult{out: out, dW: dW, dB: dB}
	if withDX {
		r.dx = ConvInputGradInto(New(n, g.InC, g.InH, g.InW), in.gy, in.w, g)
	}
	return r
}

// checkConvMatches compares the implicit-GEMM passes against the
// lowering: bit for bit wherever the lowering ran every GEMM row on the
// micro-kernel tile. The f64 lowering's forward and input-gradient GEMMs
// have one row per output position and finish rows past a multiple of
// mr on a separately rounded scalar kernel, so when N·OH·OW is not a
// multiple of mr those two outputs are held to naiveConv and to the
// lowering within 1e-9 instead. The weight gradient always matches: the
// lowering computes it as one rank-1 FMA chain per element.
func checkConvMatches(t *testing.T, in convInputs, g ConvGeom) {
	t.Helper()
	want := loweredConv(in, g)
	exact := useF32() || in.x.Shape[0]*g.OutH()*g.OutW()%mr == 0
	if !exact {
		want.out = addBias(naiveConv(in.x, in.w.Reshape(in.w.Shape[0], g.InC, g.KH, g.KW), g), in.bias)
	}
	for _, withDX := range []bool{true, false} {
		got := implicitConv(in, g, withDX)
		if exact {
			sameBits(t, "out", got.out.Data, want.out.Data)
		} else if !Equal(got.out, want.out, 1e-9) {
			t.Errorf("out diverges from naiveConv beyond 1e-9")
		}
		sameBits(t, "dW", got.dW.Data, want.dW.Data)
		sameBits(t, "dB", got.dB, want.dB)
		if !withDX {
			continue
		}
		if exact {
			sameBits(t, "dX", got.dx.Data, want.dx.Data)
		} else if !Equal(got.dx, want.dx, 1e-9) {
			t.Errorf("dX diverges from the lowering beyond 1e-9")
		}
	}
}

func addBias(out *Tensor, bias []float64) *Tensor {
	sp := out.Shape[2] * out.Shape[3]
	for i := range out.Data {
		out.Data[i] += bias[i/sp%len(bias)]
	}
	return out
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, lowering gives %v", what, i, got[i], want[i])
		}
	}
}

// TestConvMatchesLowering holds the implicit-GEMM convolution to the
// im2col lowering it replaced, bit for bit on out, dX, dW and dB (and on
// the params-only path), at both precisions and at 1 and 4 workers.
func TestConvMatchesLowering(t *testing.T) {
	defer SetPrecision(F64)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, prec := range []Precision{F64, F32} {
		for _, procs := range []int{1, 4} {
			for i, c := range convCases {
				t.Run(fmt.Sprintf("%s/procs%d/%s", prec, procs, c.name), func(t *testing.T) {
					SetPrecision(prec)
					runtime.GOMAXPROCS(procs)
					checkConvMatches(t, newConvInputs(rand.New(rand.NewSource(int64(40+i))), c), c.g)
				})
			}
		}
	}
}

// FuzzConvLowering runs the TestConvMatchesLowering assertions over
// random geometry, batch and values. Output channels stay within the
// lowering's direct weight-gradient path (≤ transADirectMaxM), the path
// every model in the repo takes.
func FuzzConvLowering(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(8), uint8(8), uint8(3), uint8(3), uint8(1), uint8(1), uint8(10), uint8(4))
	f.Add(int64(2), uint8(10), uint8(6), uint8(6), uint8(3), uint8(3), uint8(1), uint8(1), uint8(14), uint8(2))
	f.Add(int64(3), uint8(2), uint8(9), uint8(7), uint8(3), uint8(2), uint8(2), uint8(0), uint8(5), uint8(1))
	f.Add(int64(4), uint8(12), uint8(5), uint8(5), uint8(5), uint8(5), uint8(1), uint8(2), uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, inC, inH, inW, kh, kw, stride, pad, outC, n uint8) {
		c := convCase{
			g: ConvGeom{
				InC: 1 + int(inC)%12, InH: 1 + int(inH)%12, InW: 1 + int(inW)%12,
				KH: 1 + int(kh)%5, KW: 1 + int(kw)%5,
				Stride: 1 + int(stride)%3, Pad: int(pad) % 3,
			},
			outC: 1 + int(outC)%transADirectMaxM,
			n:    1 + int(n)%6,
		}
		if c.g.Validate() != nil {
			return
		}
		defer SetPrecision(F64)
		for _, prec := range []Precision{F64, F32} {
			SetPrecision(prec)
			checkConvMatches(t, newConvInputs(rand.New(rand.NewSource(seed)), c), c.g)
		}
	})
}
