package tensor

import (
	"fmt"
	"time"
)

// The float32 compute tier's GEMM. It reuses the Goto/BLIS decomposition,
// cache-block sizes, and row-parallel fan-out of the float64 driver in
// matmul.go — only the element width and the micro-tile change:
//
//   - The micro-kernel is mr32×nr32 = 6×16: with 8 float32 lanes per AVX2
//     register (4 per NEON register) a 16-wide tile costs the same two
//     register loads per packed-B row as the float64 kernel's 8-wide tile,
//     while each FMA moves twice the FLOPs. The tile is 6 rows instead of
//     the f64 kernel's 4 because 8 accumulator registers sit exactly at
//     the FMA-latency × throughput product — the f64 kernel can't quite
//     keep both FMA ports busy, and a 4×16 f32 kernel inherits the same
//     stall, capping the tier below 2x. Twelve accumulators give the
//     scheduler slack, so the f32 kernel reaches the FMA-port bound.
//   - One generic driver serves two callers. The PURE path (MatMul32 and
//     friends) instantiates it with T = float32: f32 storage in, f32 out.
//     The MIXED path (the f64 entry points in matmul.go running under the
//     F32 precision policy) instantiates it with T = float64: operands are
//     narrowed once — A up front, B at pack time — the micro-kernel
//     accumulates one k-block in f32, and storeRow32 widens the partial
//     sums into the float64 destination, so accumulation ACROSS k-blocks
//     (and the bias epilogue) stays float64.
//   - A kcBlock×nr32 packed panel of float32 is 16 KiB — the same
//     footprint as the float64 panel — so the f64 cache-block tuning
//     carries over unchanged.
//
// Determinism matches the f64 driver: every output element is computed by
// exactly one worker with a fixed k-accumulation order, so results are
// bit-identical for any worker count (parallel32_test.go holds this for
// both instantiations).

// nr32 is the f32 micro-kernel width: two 8-lane AVX2 registers, or four
// 4-lane NEON registers. mr32 is the tile height; the f32 parallel
// fan-out aligns its chunks to mr32 (not the f64 mr) so row grouping —
// and therefore which rows run the assembly tile versus the scalar
// remainder — is identical at every worker count.
const (
	nr32 = 16
	mr32 = 6
)

// elem constrains the generic driver to the two storage widths.
type elem interface{ ~float32 | ~float64 }

// gemmShape32 carries one product's geometry through the f32 driver. T is
// the storage type of B, bias, and the destination; A is always narrowed
// to float32 before the driver runs.
type gemmShape32[T elem] struct {
	m, k, n int
	transB  bool // b is n×k instead of k×n
	bias    []T  // optional epilogue bias, length n
}

// MatMul32 returns a·b for 2-D float32 tensors a (m×k) and b (k×n).
func MatMul32(a, b *Tensor32) *Tensor32 {
	m, k, n := gemmDims32("MatMul32", a, b, false)
	out := New32(m, n)
	gemm32(out.Data, a.Data, b.Data, gemmShape32[float32]{m: m, k: k, n: n})
	return out
}

// MatMul32Into computes dst = a·b, reusing dst's storage (shape must be
// m×n). dst must not alias a or b. Returns dst.
func MatMul32Into(dst, a, b *Tensor32) *Tensor32 {
	m, k, n := gemmDims32("MatMul32Into", a, b, false)
	checkDst32("MatMul32Into", dst, m, n)
	gemm32(dst.Data, a.Data, b.Data, gemmShape32[float32]{m: m, k: k, n: n})
	return dst
}

// MatMulTransB32 returns a·bᵀ where a is m×k and b is n×k.
func MatMulTransB32(a, b *Tensor32) *Tensor32 {
	m, k, n := gemmDims32("MatMulTransB32", a, b, true)
	out := New32(m, n)
	gemm32(out.Data, a.Data, b.Data, gemmShape32[float32]{m: m, k: k, n: n, transB: true})
	return out
}

// MatMulBias32Into computes dst = a·b + bias (bias broadcast across rows,
// length n), fused into the GEMM epilogue. dst must not alias a or b.
func MatMulBias32Into(dst, a, b *Tensor32, bias []float32) *Tensor32 {
	m, k, n := gemmDims32("MatMulBias32Into", a, b, false)
	checkDst32("MatMulBias32Into", dst, m, n)
	if len(bias) != n {
		panic(fmt.Sprintf("tensor: MatMulBias32Into bias length %d, want %d", len(bias), n))
	}
	gemm32(dst.Data, a.Data, b.Data, gemmShape32[float32]{m: m, k: k, n: n, bias: bias})
	return dst
}

// gemmDims32 validates operand ranks/shapes and returns (m, k, n).
func gemmDims32(op string, a, b *Tensor32, transB bool) (m, k, n int) {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: %s needs 2-D operands, got %v and %v", op, a.Shape, b.Shape))
	}
	m, k = a.Shape[0], a.Shape[1]
	var kb int
	if transB {
		n, kb = b.Shape[0], b.Shape[1]
	} else {
		kb, n = b.Shape[0], b.Shape[1]
	}
	if kb != k {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v·%v", op, a.Shape, b.Shape))
	}
	return m, k, n
}

func checkDst32(op string, dst *Tensor32, m, n int) {
	if dst.Dims() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination shape %v, want [%d %d]", op, dst.Shape, m, n))
	}
}

// gemmMixed is the F32-policy entry for the float64-facing GEMMs: narrow A
// once into a pooled f32 buffer, then run the generic driver with float64
// B/bias/destination (B narrows at pack time, partial sums widen at store
// time). Called from matmul.go's gemm before its own timing starts; the
// generic driver records the GEMM metrics instead.
func gemmMixed(dst, a, b []float64, s gemmShape) {
	a32 := GetTensor32(s.m * s.k)
	NarrowSlice(a32.Data, a[:s.m*s.k])
	gemm32(dst, a32.Data, b, gemmShape32[float64]{m: s.m, k: s.k, n: s.n, transB: s.transB, bias: s.bias})
	PutTensor32(a32)
}

// gemm32 is the blocked driver: dst (m×n, fully overwritten) =
// widen(a32·op(narrow(b))) + bias, with the widening a no-op for
// T = float32.
func gemm32[T elem](dst []T, a32 []float32, b []T, s gemmShape32[T]) {
	if s.m == 0 || s.n == 0 {
		return
	}
	if s.k == 0 {
		fillBias32(dst, s)
		return
	}
	vol := s.m * s.n * s.k
	timed := vol >= gemmTimedVolume
	var start time.Time
	if timed {
		start = time.Now()
	}

	// Sized to this product's largest packed block, as in gemm.
	bpack := GetTensor32(min(kcBlock, s.k) * nr32 * ((min(ncBlock, s.n) + nr32 - 1) / nr32))
	serial := rowWorkers(s.m, vol) < 2
	for jc := 0; jc < s.n; jc += ncBlock {
		ncb := min(ncBlock, s.n-jc)
		for pc := 0; pc < s.k; pc += kcBlock {
			kcb := min(kcBlock, s.k-pc)
			packB32(bpack.Data, b, pc, jc, kcb, ncb, s)
			first := pc == 0
			if serial {
				// Direct call: a closure here would heap-allocate its
				// captured loop variables on every cache block.
				gemmRows32(dst, a32, bpack.Data, 0, s.m, pc, jc, kcb, ncb, s, first)
			} else {
				gemmRows32Parallel(dst, a32, bpack.Data, vol, pc, jc, kcb, ncb, s, first)
			}
		}
	}
	PutTensor32(bpack)

	if timed {
		recordGEMM(vol, time.Since(start))
	}
}

// fillBias32 handles the degenerate k == 0 product: dst = bias (or zero).
func fillBias32[T elem](dst []T, s gemmShape32[T]) {
	for i := 0; i < s.m; i++ {
		row := dst[i*s.n : (i+1)*s.n]
		if s.bias == nil {
			for j := range row {
				row[j] = 0
			}
		} else {
			copy(row, s.bias)
		}
	}
}

// packB32 packs the (kcb × ncb) block of op(b) at (pc, jc) into nr32-wide
// float32 column panels, narrowing each element as it lands (a no-op for
// float32 sources). Layout matches packB: panel jp holds columns
// [jc+jp*nr32, jc+jp*nr32+nr32) as kcb rows of nr32 contiguous values,
// zero-padded past ncb so the micro-kernel never sees a ragged panel.
func packB32[T elem](dst []float32, b []T, pc, jc, kcb, ncb int, s gemmShape32[T]) {
	panels := (ncb + nr32 - 1) / nr32
	b32, pure := any(b).([]float32)
	for jp := 0; jp < panels; jp++ {
		w := min(nr32, ncb-jp*nr32)
		po := jp * kcb * nr32
		if pure && !s.transB && w == nr32 {
			// Pure-f32 full-width panel: each packed row is a straight
			// 16-element copy of the source row, no narrowing loop.
			for p := 0; p < kcb; p++ {
				copy(dst[po+p*nr32:po+p*nr32+nr32], b32[(pc+p)*s.n+jc+jp*nr32:])
			}
			continue
		}
		if s.transB {
			// op(b) = bᵀ with b n×k: column jc+j of op(b) is row jc+j of b.
			for j := 0; j < w; j++ {
				src := b[(jc+jp*nr32+j)*s.k+pc : (jc+jp*nr32+j)*s.k+pc+kcb]
				for p, v := range src {
					dst[po+p*nr32+j] = float32(v)
				}
			}
			if w < nr32 {
				for p := 0; p < kcb; p++ {
					for j := w; j < nr32; j++ {
						dst[po+p*nr32+j] = 0
					}
				}
			}
			continue
		}
		for p := 0; p < kcb; p++ {
			src := b[(pc+p)*s.n+jc+jp*nr32:]
			d := dst[po+p*nr32 : po+p*nr32+nr32]
			for j := 0; j < w; j++ {
				d[j] = float32(src[j])
			}
			for j := w; j < nr32; j++ {
				d[j] = 0
			}
		}
	}
}

// gemmRows32Parallel fans one cache block's row range out over
// parallelRows; a separate function for the same closure-allocation reason
// as gemmRowsParallel.
func gemmRows32Parallel[T elem](dst []T, a32, bpack []float32, vol, pc, jc, kcb, ncb int, s gemmShape32[T], first bool) {
	parallelRowsAligned(s.m, vol, mr32, func(lo, hi int) {
		gemmRows32(dst, a32, bpack, lo, hi, pc, jc, kcb, ncb, s, first)
	})
}

// gemmRows32 computes rows [i0, i1) of dst against the packed B block.
// first marks the k-block that overwrites dst (folding in the bias); later
// k-blocks accumulate — in dst's own precision, so the mixed path sums its
// f32 k-block partials in float64.
func gemmRows32[T elem](dst []T, a32, bpack []float32, i0, i1, pc, jc, kcb, ncb int, s gemmShape32[T], first bool) {
	panels := (ncb + nr32 - 1) / nr32
	var ctile [mr32 * nr32]float32
	i := i0
	for ; i+mr32 <= i1; i += mr32 {
		a0 := a32[(i+0)*s.k+pc : (i+0)*s.k+pc+kcb]
		a1 := a32[(i+1)*s.k+pc : (i+1)*s.k+pc+kcb]
		a2 := a32[(i+2)*s.k+pc : (i+2)*s.k+pc+kcb]
		a3 := a32[(i+3)*s.k+pc : (i+3)*s.k+pc+kcb]
		a4 := a32[(i+4)*s.k+pc : (i+4)*s.k+pc+kcb]
		a5 := a32[(i+5)*s.k+pc : (i+5)*s.k+pc+kcb]
		for jp := 0; jp < panels; jp++ {
			bp := bpack[jp*kcb*nr32 : (jp+1)*kcb*nr32]
			microKernel32(&ctile, a0, a1, a2, a3, a4, a5, bp, kcb)
			j := jc + jp*nr32
			w := min(nr32, ncb-jp*nr32)
			for r := 0; r < mr32; r++ {
				storeRow32(dst[(i+r)*s.n+j:], ctile[r*nr32:(r+1)*nr32], w, j, first, s.bias)
			}
		}
	}
	// Row remainder (1..mr32-1 rows): run the full 6-row kernel with the
	// missing row slices aliased to the last valid row — the kernel only
	// reads A and keeps one independent accumulator chain per row, so the
	// valid rows' results are bit-identical to a full tile's — then store
	// just the valid rows. This keeps the remainder on the assembly kernel
	// instead of a scalar loop (at m=256, mr32=6 leaves 4 remainder rows;
	// scalar ones cost more than the other 252 combined saved).
	if rem := i1 - i; rem > 0 {
		var rows [mr32][]float32
		for r := 0; r < mr32; r++ {
			ri := min(i+r, i1-1)
			rows[r] = a32[ri*s.k+pc : ri*s.k+pc+kcb]
		}
		for jp := 0; jp < panels; jp++ {
			bp := bpack[jp*kcb*nr32 : (jp+1)*kcb*nr32]
			microKernel32(&ctile, rows[0], rows[1], rows[2], rows[3], rows[4], rows[5], bp, kcb)
			j := jc + jp*nr32
			w := min(nr32, ncb-jp*nr32)
			for r := 0; r < rem; r++ {
				storeRow32(dst[(i+r)*s.n+j:], ctile[r*nr32:(r+1)*nr32], w, j, first, s.bias)
			}
		}
	}
}

// storeRow32 writes w computed lanes into dst, widening each f32 partial
// sum to dst's precision, either overwriting (+bias) on the first k-block
// or accumulating on later ones.
func storeRow32[T elem](dst []T, c []float32, w, j int, first bool, bias []T) {
	if first {
		if bias == nil {
			// Pure-f32 overwrite is a straight copy (the widening T(·) is
			// the identity); the common single-k-block product never takes
			// the accumulate branch at all.
			if d32, pure := any(dst).([]float32); pure {
				copy(d32[:w], c[:w])
				return
			}
		}
		if bias != nil {
			for x := 0; x < w; x++ {
				dst[x] = T(c[x]) + bias[j+x]
			}
			return
		}
		for x := 0; x < w; x++ {
			dst[x] = T(c[x])
		}
		return
	}
	for x := 0; x < w; x++ {
		dst[x] += T(c[x])
	}
}

// microKernel32Go is the portable mr32×nr32 tile. Unlike the float64
// kernel it keeps the accumulators in a stack array rather than named
// scalars; it is the fallback for CPUs without the assembly kernels, not a
// path the supported architectures hit.
func microKernel32Go(c *[mr32 * nr32]float32, a0, a1, a2, a3, a4, a5, bp []float32, kcb int) {
	var acc [mr32 * nr32]float32
	for p := 0; p < kcb; p++ {
		b := bp[p*nr32 : p*nr32+nr32 : p*nr32+nr32]
		a := [mr32]float32{a0[p], a1[p], a2[p], a3[p], a4[p], a5[p]}
		for r := 0; r < mr32; r++ {
			av := a[r]
			cr := acc[r*nr32 : (r+1)*nr32]
			for x, bv := range b {
				cr[x] += av * bv
			}
		}
	}
	*c = acc
}

// transADirect32 is the F32-policy version of transADirect: both operands
// narrow once into pooled f32 buffers, the rank-1 updates accumulate in
// f32 through axpyRow32, and the finished product widens into the float64
// destination. Serial by construction, like its f64 sibling.
func transADirect32(dst, a, b []float64, m, k, n int) {
	vol := m * k * n
	timed := vol >= gemmTimedVolume
	var start time.Time
	if timed {
		start = time.Now()
	}
	a32 := GetTensor32(k * m)
	b32 := GetTensor32(k * n)
	d32 := GetTensor32(m * n)
	NarrowSlice(a32.Data, a[:k*m])
	NarrowSlice(b32.Data, b[:k*n])
	for i := range d32.Data[:m*n] {
		d32.Data[i] = 0
	}
	for p := 0; p < k; p++ {
		arow := a32.Data[p*m : (p+1)*m]
		brow := b32.Data[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			axpyRow32(d32.Data[i*n:(i+1)*n], brow, av)
		}
	}
	WidenSlice(dst[:m*n], d32.Data[:m*n])
	PutTensor32(d32)
	PutTensor32(b32)
	PutTensor32(a32)
	if timed {
		recordGEMM(vol, time.Since(start))
	}
}

// axpyRow32Go is the portable dst += alpha·src loop behind axpyRow32.
func axpyRow32Go(dst, src []float32, alpha float32) {
	for j, v := range src[:len(dst)] {
		dst[j] += alpha * v
	}
}
