package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if got := x.Size(); got != 24 {
		t.Fatalf("Size() = %d, want 24", got)
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if got := x.At(2, 1); got != 7.5 {
		t.Fatalf("At(2,1) = %v, want 7.5", got)
	}
	if got := x.Data[2*4+1]; got != 7.5 {
		t.Fatalf("flat layout wrong: Data[9] = %v, want 7.5", got)
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Set(5, 0, 3)
	if got := x.At(0, 3); got != 5 {
		t.Fatalf("reshape does not share data: got %v, want 5", got)
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)

	tests := []struct {
		name string
		got  *Tensor
		want []float64
	}{
		{"Add", Add(a, b), []float64{6, 8, 10, 12}},
		{"Sub", Sub(a, b), []float64{-4, -4, -4, -4}},
		{"Mul", Mul(a, b), []float64{5, 12, 21, 32}},
		{"Scale", Scale(a, 2), []float64{2, 4, 6, 8}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for i, v := range tt.want {
				if tt.got.Data[i] != v {
					t.Fatalf("%s[%d] = %v, want %v", tt.name, i, tt.got.Data[i], v)
				}
			}
		})
	}
}

func TestAxpyInPlace(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{10, 20}, 2)
	AxpyInPlace(a, 0.5, b)
	if a.Data[0] != 6 || a.Data[1] != 12 {
		t.Fatalf("AxpyInPlace = %v, want [6 12]", a.Data)
	}
}

func TestClamp(t *testing.T) {
	a := FromSlice([]float64{-2, 0.5, 3}, 3)
	c := Clamp(a, 0, 1)
	want := []float64{0, 0.5, 1}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("Clamp[%d] = %v, want %v", i, c.Data[i], want[i])
		}
	}
	if a.Data[0] != -2 {
		t.Fatal("Clamp mutated its input")
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float64{3, -1, 4, 1}, 4)
	if got := a.Sum(); got != 7 {
		t.Errorf("Sum = %v, want 7", got)
	}
	if got := a.Mean(); got != 1.75 {
		t.Errorf("Mean = %v, want 1.75", got)
	}
	if got := a.Max(); got != 4 {
		t.Errorf("Max = %v, want 4", got)
	}
	if got := a.Min(); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
	if got := a.Argmax(); got != 2 {
		t.Errorf("Argmax = %v, want 2", got)
	}
	if got := a.L1Norm(); got != 9 {
		t.Errorf("L1Norm = %v, want 9", got)
	}
	if got := a.L2Norm(); math.Abs(got-math.Sqrt(27)) > 1e-12 {
		t.Errorf("L2Norm = %v, want sqrt(27)", got)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], want[i])
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner dim mismatch")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

// naiveMatMul is the reference implementation for property testing.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulMatchesNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(20), 1+r.Intn(20), 1+r.Intn(20)
		a, b := New(m, k), New(k, n)
		a.RandNormal(r, 0, 1)
		b.RandNormal(r, 0, 1)
		return Equal(MatMul(a, b), naiveMatMul(a, b), 1e-9)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulParallelLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := New(70, 70), New(70, 70)
	a.RandNormal(rng, 0, 1)
	b.RandNormal(rng, 0, 1)
	if !Equal(MatMul(a, b), naiveMatMul(a, b), 1e-9) {
		t.Fatal("parallel MatMul diverges from naive reference")
	}
}

func TestMatMulTransVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := New(5, 7), New(5, 4) // aᵀ·b : (7×5)(5×4)
	a.RandNormal(rng, 0, 1)
	b.RandNormal(rng, 0, 1)
	got := MatMulTransA(a, b)
	want := MatMul(Transpose(a), b)
	if !Equal(got, want, 1e-12) {
		t.Fatal("MatMulTransA diverges from Transpose+MatMul")
	}

	c, d := New(6, 3), New(8, 3) // c·dᵀ : (6×3)(3×8)
	c.RandNormal(rng, 0, 1)
	d.RandNormal(rng, 0, 1)
	got2 := MatMulTransB(c, d)
	want2 := MatMul(c, Transpose(d))
	if !Equal(got2, want2, 1e-12) {
		t.Fatal("MatMulTransB diverges from MatMul+Transpose")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(15), 1+r.Intn(15)
		a := New(m, n)
		a.RandNormal(r, 0, 1)
		return Equal(Transpose(Transpose(a)), a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	x := FromSlice([]float64{1, 0, -1}, 3)
	y := MatVec(a, x)
	if y.Data[0] != -2 || y.Data[1] != -2 {
		t.Fatalf("MatVec = %v, want [-2 -2]", y.Data)
	}
}

func TestConvGeomValidate(t *testing.T) {
	good := ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	if good.OutH() != 8 || good.OutW() != 8 {
		t.Fatalf("same-padding geometry output = %dx%d, want 8x8", good.OutH(), good.OutW())
	}
	bad := []ConvGeom{
		{InC: 0, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1},
		{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 0},
		{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: -1},
		{InC: 3, InH: 2, InW: 2, KH: 5, KW: 5, Stride: 1, Pad: 0},
		{InC: 3, InH: 1, InW: 8, KH: 4, KW: 1, Stride: 3, Pad: 1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad geometry %d accepted: %+v", i, g)
		}
	}
}

// naiveConv computes convolution directly for the im2col cross-check.
func naiveConv(x *Tensor, w *Tensor, g ConvGeom) *Tensor {
	n := x.Shape[0]
	outC := w.Shape[0]
	oh, ow := g.OutH(), g.OutW()
	out := New(n, outC, oh, ow)
	for b := 0; b < n; b++ {
		for oc := 0; oc < outC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := 0.0
					for c := 0; c < g.InC; c++ {
						for ky := 0; ky < g.KH; ky++ {
							for kx := 0; kx < g.KW; kx++ {
								iy := oy*g.Stride + ky - g.Pad
								ix := ox*g.Stride + kx - g.Pad
								if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
									s += x.At(b, c, iy, ix) * w.At(oc, c, ky, kx)
								}
							}
						}
					}
					out.Set(s, b, oc, oy, ox)
				}
			}
		}
	}
	return out
}

func TestIm2ColConvMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := ConvGeom{InC: 3, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
	n, outC := 2, 4
	x := New(n, g.InC, g.InH, g.InW)
	w := New(outC, g.InC, g.KH, g.KW)
	x.RandNormal(rng, 0, 1)
	w.RandNormal(rng, 0, 1)

	cols := Im2Col(x, g)
	wm := w.Reshape(outC, g.InC*g.KH*g.KW)
	prod := MatMulTransB(cols, wm) // [n*oh*ow, outC]

	oh, ow := g.OutH(), g.OutW()
	got := New(n, outC, oh, ow)
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for oc := 0; oc < outC; oc++ {
					got.Set(prod.At((b*oh+oy)*ow+ox, oc), b, oc, oy, ox)
				}
			}
		}
	}
	want := naiveConv(x, w, g)
	if !Equal(got, want, 1e-9) {
		t.Fatal("im2col-based convolution diverges from naive convolution")
	}
}

func TestIm2ColStride2(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := ConvGeom{InC: 2, InH: 7, InW: 7, KH: 3, KW: 3, Stride: 2, Pad: 1}
	x := New(1, g.InC, g.InH, g.InW)
	w := New(3, g.InC, g.KH, g.KW)
	x.RandNormal(rng, 0, 1)
	w.RandNormal(rng, 0, 1)
	cols := Im2Col(x, g)
	if cols.Shape[0] != g.OutH()*g.OutW() || cols.Shape[1] != g.InC*g.KH*g.KW {
		t.Fatalf("Im2Col shape = %v, want [%d %d]", cols.Shape, g.OutH()*g.OutW(), g.InC*g.KH*g.KW)
	}
}

// TestCol2ImAdjoint checks the defining adjoint property
// <Im2Col(x), c> == <x, Col2Im(c)> for random x and c, which is exactly
// what the conv backward pass relies on.
func TestCol2ImAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := ConvGeom{
			InC: 1 + r.Intn(3), InH: 4 + r.Intn(4), InW: 4 + r.Intn(4),
			KH: 1 + r.Intn(3), KW: 1 + r.Intn(3), Stride: 1 + r.Intn(2), Pad: r.Intn(2),
		}
		if g.Validate() != nil {
			return true // skip degenerate draws
		}
		n := 1 + r.Intn(2)
		x := New(n, g.InC, g.InH, g.InW)
		x.RandNormal(r, 0, 1)
		cols := Im2Col(x, g)
		c := New(cols.Shape...)
		c.RandNormal(r, 0, 1)
		lhs := Dot(cols, c)
		rhs := Dot(x, Col2Im(c, n, g))
		return math.Abs(lhs-rhs) < 1e-8*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := New(10000)
	x.HeInit(rng, 50)
	std := math.Sqrt(2.0 / 50.0)
	var s, s2 float64
	for _, v := range x.Data {
		s += v
		s2 += v * v
	}
	mean := s / float64(len(x.Data))
	sampleStd := math.Sqrt(s2/float64(len(x.Data)) - mean*mean)
	if math.Abs(mean) > 0.02 {
		t.Errorf("HeInit mean = %v, want ≈0", mean)
	}
	if math.Abs(sampleStd-std) > 0.02 {
		t.Errorf("HeInit std = %v, want ≈%v", sampleStd, std)
	}

	y := New(1000)
	y.XavierInit(rng, 30, 70)
	limit := math.Sqrt(6.0 / 100.0)
	if y.Max() > limit || y.Min() < -limit {
		t.Errorf("XavierInit out of range [%v, %v]: [%v, %v]", -limit, limit, y.Min(), y.Max())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares backing data")
	}
}
