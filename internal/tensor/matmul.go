package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// The GEMM in this file follows the classic Goto/BLIS decomposition at a
// scale tuned for this repo's model sizes (k of tens to hundreds, n from a
// handful of conv channels up to a few thousand dense units):
//
//   - B is packed one (kcBlock × ncBlock) block at a time into nr-wide
//     column panels so the micro-kernel streams it contiguously. The final
//     panel is zero-padded, which keeps the kernel free of column edge
//     cases; padded lanes are masked at store time.
//   - The micro-kernel computes an mr×nr tile of C with all accumulators in
//     registers. On amd64 with AVX2+FMA it is the 4×8 assembly kernel in
//     kernel_amd64.s; everywhere else (and for row remainders) the pure-Go
//     kernels below run.
//   - Rows are split across a bounded worker pool per (kc, nc) block. Every
//     output element is computed by exactly one worker with a fixed
//     k-accumulation order, so results are bit-identical for any worker
//     count — the property the federation determinism tests rely on.
//
// Transposed operands never materialize a transposed copy on the heap:
// MatMulTransA packs Aᵀ into a pooled scratch buffer and MatMulTransB packs
// B's rows directly into column panels.
const (
	mr = 4 // micro-kernel rows
	nr = 8 // micro-kernel cols (one AVX2 register pair of float64)

	// kcBlock × nr panel ≈ 16 KiB: two panels plus the A rows stay L1/L2
	// resident. ncBlock bounds the packed block to kcBlock×ncBlock ≈ 1 MiB.
	kcBlock = 256
	ncBlock = 512
)

// parallelThreshold is the matrix volume (rows*cols*inner) above which
// GEMM and the convolution passes fan out across goroutines. Below it the
// goroutine overhead outweighs the parallel speedup.
const parallelThreshold = 64 * 64 * 64

// MatMul returns a·b for 2-D tensors a (m×k) and b (k×n).
// Large products are computed in parallel across row blocks.
func MatMul(a, b *Tensor) *Tensor {
	m, _, n := gemmDims("MatMul", a, b, false, false)
	out := New(m, n)
	gemm(out.Data, a.Data, b.Data, gemmShape{m: m, k: a.Shape[1], n: n})
	return out
}

// MatMulInto computes dst = a·b, reusing dst's storage (shape must be m×n).
// dst must not alias a or b. Returns dst.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, _, n := gemmDims("MatMulInto", a, b, false, false)
	checkDst("MatMulInto", dst, m, n)
	gemm(dst.Data, a.Data, b.Data, gemmShape{m: m, k: a.Shape[1], n: n})
	return dst
}

// MatMulBiasInto computes dst = a·b + bias (bias broadcast across rows,
// length n), fused into the GEMM epilogue. dst must not alias a or b.
func MatMulBiasInto(dst, a, b *Tensor, bias []float64) *Tensor {
	m, _, n := gemmDims("MatMulBiasInto", a, b, false, false)
	checkDst("MatMulBiasInto", dst, m, n)
	checkBias("MatMulBiasInto", bias, n)
	gemm(dst.Data, a.Data, b.Data, gemmShape{m: m, k: a.Shape[1], n: n, bias: bias})
	return dst
}

// MatMulTransA returns aᵀ·b where a is k×m and b is k×n.
func MatMulTransA(a, b *Tensor) *Tensor {
	m, _, n := gemmDims("MatMulTransA", a, b, true, false)
	out := New(m, n)
	MatMulTransAInto(out, a, b)
	return out
}

// transADirectMaxM is the output-height ceiling for the direct aᵀ·b path.
// The weight-gradient products (dW = gradᵀ·cols) have m = channels or
// classes but k = batch·positions, so the blocked kernel spends more time
// packing B (k·n panel writes) than on the m·n·k arithmetic; below this m
// the whole dst stays cache-resident and rank-1 accumulation wins.
const transADirectMaxM = 32

// MatMulTransAInto computes dst = aᵀ·b where a is k×m and b is k×n, without
// allocating. Small m takes the direct rank-1 path; otherwise Aᵀ is staged
// through a pooled scratch buffer into the blocked kernel. dst must not
// alias a or b. Returns dst.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	m, k, n := gemmDims("MatMulTransAInto", a, b, true, false)
	checkDst("MatMulTransAInto", dst, m, n)
	if m <= transADirectMaxM {
		transADirect(dst.Data, a.Data, b.Data, m, k, n)
		return dst
	}
	// The row-major kernel wants A's rows contiguous; transpose into a
	// pooled buffer instead of striding through a column-wise (or
	// allocating a fresh transpose per call, as the pre-pool code did).
	at := GetTensor(m, k)
	TransposeInto(at, a)
	gemm(dst.Data, at.Data, b.Data, gemmShape{m: m, k: k, n: n})
	PutTensor(at)
	return dst
}

// transADirect accumulates dst = aᵀ·b (a k×m, b k×n) one rank-1 update per
// row of a, reading both operands in storage order with no transpose or
// packing. Rows of a that came through a ReLU backward are frequently zero,
// so zero lanes skip their n-wide update entirely. Serial by construction,
// hence trivially bit-identical across worker counts.
func transADirect(dst, a, b []float64, m, k, n int) {
	if useF32() {
		transADirect32(dst, a, b, m, k, n)
		return
	}
	vol := m * k * n
	timed := vol >= gemmTimedVolume
	var start time.Time
	if timed {
		start = time.Now()
	}
	for i := range dst[:m*n] {
		dst[i] = 0
	}
	for p := 0; p < k; p++ {
		arow := a[p*m : (p+1)*m]
		brow := b[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			axpyRow(dst[i*n:(i+1)*n], brow, av)
		}
	}
	if timed {
		recordGEMM(vol, time.Since(start))
	}
}

// axpyRowGo is the portable dst += alpha·src loop behind axpyRow.
func axpyRowGo(dst, src []float64, alpha float64) {
	for j, v := range src[:len(dst)] {
		dst[j] += alpha * v
	}
}

// MatMulTransB returns a·bᵀ where a is m×k and b is n×k.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, _, n := gemmDims("MatMulTransB", a, b, false, true)
	out := New(m, n)
	gemm(out.Data, a.Data, b.Data, gemmShape{m: m, k: a.Shape[1], n: n, transB: true})
	return out
}

// MatMulTransBInto computes dst = a·bᵀ where a is m×k and b is n×k. dst
// must not alias a or b. Returns dst.
func MatMulTransBInto(dst, a, b *Tensor) *Tensor {
	m, k, n := gemmDims("MatMulTransBInto", a, b, false, true)
	checkDst("MatMulTransBInto", dst, m, n)
	gemm(dst.Data, a.Data, b.Data, gemmShape{m: m, k: k, n: n, transB: true})
	return dst
}

// MatMulTransBBiasInto computes dst = a·bᵀ + bias (bias broadcast across
// rows, length n), fused into the GEMM epilogue — the dense layer's
// forward pass in one call. dst must not alias a or b.
func MatMulTransBBiasInto(dst, a, b *Tensor, bias []float64) *Tensor {
	m, k, n := gemmDims("MatMulTransBBiasInto", a, b, false, true)
	checkDst("MatMulTransBBiasInto", dst, m, n)
	checkBias("MatMulTransBBiasInto", bias, n)
	gemm(dst.Data, a.Data, b.Data, gemmShape{m: m, k: k, n: n, transB: true, bias: bias})
	return dst
}

// gemmDims validates operand ranks/shapes and returns (m, k, n) for the
// requested transposition.
func gemmDims(op string, a, b *Tensor, transA, transB bool) (m, k, n int) {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: %s needs 2-D operands, got %v and %v", op, a.Shape, b.Shape))
	}
	if transA {
		k, m = a.Shape[0], a.Shape[1]
	} else {
		m, k = a.Shape[0], a.Shape[1]
	}
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

func checkDst(op string, dst *Tensor, m, n int) {
	if dst.Dims() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination shape %v, want [%d %d]", op, dst.Shape, m, n))
	}
}

func checkBias(op string, bias []float64, n int) {
	if len(bias) != n {
		panic(fmt.Sprintf("tensor: %s bias length %d, want %d", op, len(bias), n))
	}
}

// gemmShape carries one product's geometry through the blocked driver.
type gemmShape struct {
	m, k, n int
	transB  bool      // b is n×k instead of k×n
	bias    []float64 // optional epilogue bias, length n
}

// gemm is the blocked driver: dst (m×n, fully overwritten) = a·op(b) + bias.
// Under the F32 precision policy the product routes through the f32 tier
// (matmul32.go): operands narrow at pack time, the widened f32
// micro-kernel computes each k-block, and partial sums accumulate in
// float64 — same blocked structure, so worker-count determinism holds.
func gemm(dst, a, b []float64, s gemmShape) {
	if s.m == 0 || s.n == 0 {
		return
	}
	if s.k == 0 {
		fillBias(dst, s)
		return
	}
	if useF32() {
		gemmMixed(dst, a, b, s)
		return
	}
	vol := s.m * s.n * s.k
	timed := vol >= gemmTimedVolume
	var start time.Time
	if timed {
		start = time.Now()
	}

	// The packed block holds ⌈ncb/nr⌉ panels of kcb×nr, panel jp at
	// jp·kcb·nr, so it is sized to this product's largest block.
	bpack := GetTensor(min(kcBlock, s.k) * nr * ((min(ncBlock, s.n) + nr - 1) / nr))
	serial := rowWorkers(s.m, vol) < 2
	for jc := 0; jc < s.n; jc += ncBlock {
		ncb := min(ncBlock, s.n-jc)
		for pc := 0; pc < s.k; pc += kcBlock {
			kcb := min(kcBlock, s.k-pc)
			packB(bpack.Data, b, pc, jc, kcb, ncb, s)
			first := pc == 0
			if serial {
				// Direct call: a closure here would heap-allocate its
				// captured loop variables on every cache block.
				gemmRows(dst, a, bpack.Data, 0, s.m, pc, jc, kcb, ncb, s, first)
			} else {
				gemmRowsParallel(dst, a, bpack.Data, vol, pc, jc, kcb, ncb, s, first)
			}
		}
	}
	PutTensor(bpack)

	if timed {
		recordGEMM(vol, time.Since(start))
	}
}

// fillBias handles the degenerate k == 0 product: dst = bias (or zero).
func fillBias(dst []float64, s gemmShape) {
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

// packB packs the (kcb × ncb) block of op(b) at (pc, jc) into nr-wide
// column panels laid out panel-major: panel jp holds columns
// [jc+jp*nr, jc+jp*nr+nr) as kcb rows of nr contiguous values. Columns past
// ncb are zero-padded so the micro-kernel never sees a ragged panel.
func packB(dst, b []float64, pc, jc, kcb, ncb int, s gemmShape) {
	panels := (ncb + nr - 1) / nr
	for jp := 0; jp < panels; jp++ {
		w := min(nr, ncb-jp*nr)
		po := jp * kcb * nr
		if s.transB {
			// op(b) = bᵀ with b n×k: column jc+j of op(b) is row jc+j of b.
			for j := 0; j < w; j++ {
				src := b[(jc+jp*nr+j)*s.k+pc : (jc+jp*nr+j)*s.k+pc+kcb]
				for p, v := range src {
					dst[po+p*nr+j] = v
				}
			}
			if w < nr {
				for p := 0; p < kcb; p++ {
					for j := w; j < nr; j++ {
						dst[po+p*nr+j] = 0
					}
				}
			}
			continue
		}
		for p := 0; p < kcb; p++ {
			src := b[(pc+p)*s.n+jc+jp*nr:]
			d := dst[po+p*nr : po+p*nr+nr]
			for j := 0; j < w; j++ {
				d[j] = src[j]
			}
			for j := w; j < nr; j++ {
				d[j] = 0
			}
		}
	}
}

// gemmRows computes rows [i0, i1) of dst against the packed B block. first
// marks the k-block that overwrites dst (folding in the bias); later
// k-blocks accumulate.
// gemmRowsParallel fans one cache block's row range out over parallelRows.
// It exists as a separate function so the closure (and the captures it
// forces onto the heap) is only materialized on the parallel path; the
// serial path in gemm calls gemmRows directly and allocates nothing.
func gemmRowsParallel(dst, a, bpack []float64, vol, pc, jc, kcb, ncb int, s gemmShape, first bool) {
	parallelRows(s.m, vol, func(lo, hi int) {
		gemmRows(dst, a, bpack, lo, hi, pc, jc, kcb, ncb, s, first)
	})
}

func gemmRows(dst, a, bpack []float64, i0, i1, pc, jc, kcb, ncb int, s gemmShape, first bool) {
	panels := (ncb + nr - 1) / nr
	var ctile [mr * nr]float64
	i := i0
	for ; i+mr <= i1; i += mr {
		a0 := a[(i+0)*s.k+pc : (i+0)*s.k+pc+kcb]
		a1 := a[(i+1)*s.k+pc : (i+1)*s.k+pc+kcb]
		a2 := a[(i+2)*s.k+pc : (i+2)*s.k+pc+kcb]
		a3 := a[(i+3)*s.k+pc : (i+3)*s.k+pc+kcb]
		for jp := 0; jp < panels; jp++ {
			bp := bpack[jp*kcb*nr : (jp+1)*kcb*nr]
			microKernel(&ctile, a0, a1, a2, a3, bp, kcb)
			j := jc + jp*nr
			w := min(nr, ncb-jp*nr)
			for r := 0; r < mr; r++ {
				storeRow(dst[(i+r)*s.n+j:], ctile[r*nr:(r+1)*nr], w, j, first, s.bias)
			}
		}
	}
	// Row remainder: 1×nr scalar tiles.
	for ; i < i1; i++ {
		ar := a[i*s.k+pc : i*s.k+pc+kcb]
		for jp := 0; jp < panels; jp++ {
			bp := bpack[jp*kcb*nr : (jp+1)*kcb*nr]
			microKernel1(&ctile, ar, bp, kcb)
			j := jc + jp*nr
			w := min(nr, ncb-jp*nr)
			storeRow(dst[i*s.n+j:], ctile[:nr], w, j, first, s.bias)
		}
	}
}

// storeRow writes w computed lanes into dst, either overwriting (+bias) on
// the first k-block or accumulating on later ones.
func storeRow(dst, c []float64, w, j int, first bool, bias []float64) {
	if first {
		if bias != nil {
			for x := 0; x < w; x++ {
				dst[x] = c[x] + bias[j+x]
			}
			return
		}
		for x := 0; x < w; x++ {
			dst[x] = c[x]
		}
		return
	}
	for x := 0; x < w; x++ {
		dst[x] += c[x]
	}
}

// microKernelGo is the portable mr×nr register tile: 32 accumulators kept
// live across the full k-block, B streamed from the packed panel.
func microKernelGo(c *[mr * nr]float64, a0, a1, a2, a3, bp []float64, kcb int) {
	var c00, c01, c02, c03, c04, c05, c06, c07 float64
	var c10, c11, c12, c13, c14, c15, c16, c17 float64
	var c20, c21, c22, c23, c24, c25, c26, c27 float64
	var c30, c31, c32, c33, c34, c35, c36, c37 float64
	for p := 0; p < kcb; p++ {
		b := bp[p*nr : p*nr+nr : p*nr+nr]
		av := a0[p]
		c00 += av * b[0]
		c01 += av * b[1]
		c02 += av * b[2]
		c03 += av * b[3]
		c04 += av * b[4]
		c05 += av * b[5]
		c06 += av * b[6]
		c07 += av * b[7]
		av = a1[p]
		c10 += av * b[0]
		c11 += av * b[1]
		c12 += av * b[2]
		c13 += av * b[3]
		c14 += av * b[4]
		c15 += av * b[5]
		c16 += av * b[6]
		c17 += av * b[7]
		av = a2[p]
		c20 += av * b[0]
		c21 += av * b[1]
		c22 += av * b[2]
		c23 += av * b[3]
		c24 += av * b[4]
		c25 += av * b[5]
		c26 += av * b[6]
		c27 += av * b[7]
		av = a3[p]
		c30 += av * b[0]
		c31 += av * b[1]
		c32 += av * b[2]
		c33 += av * b[3]
		c34 += av * b[4]
		c35 += av * b[5]
		c36 += av * b[6]
		c37 += av * b[7]
	}
	c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7] = c00, c01, c02, c03, c04, c05, c06, c07
	c[8], c[9], c[10], c[11], c[12], c[13], c[14], c[15] = c10, c11, c12, c13, c14, c15, c16, c17
	c[16], c[17], c[18], c[19], c[20], c[21], c[22], c[23] = c20, c21, c22, c23, c24, c25, c26, c27
	c[24], c[25], c[26], c[27], c[28], c[29], c[30], c[31] = c30, c31, c32, c33, c34, c35, c36, c37
}

// microKernel1 is the 1×nr row-remainder tile.
func microKernel1(c *[mr * nr]float64, ar, bp []float64, kcb int) {
	var c0, c1, c2, c3, c4, c5, c6, c7 float64
	for p := 0; p < kcb; p++ {
		b := bp[p*nr : p*nr+nr : p*nr+nr]
		av := ar[p]
		c0 += av * b[0]
		c1 += av * b[1]
		c2 += av * b[2]
		c3 += av * b[3]
		c4 += av * b[4]
		c5 += av * b[5]
		c6 += av * b[6]
		c7 += av * b[7]
	}
	c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7] = c0, c1, c2, c3, c4, c5, c6, c7
}

// rowWorkers returns how many workers a row-partitioned kernel over the
// given row count and m*n*k volume should use: 1 (serial) for small work,
// otherwise GOMAXPROCS clamped to the row count. Callers on the hot path
// check for 1 and invoke their body directly, so the serial case never
// allocates a closure.
func rowWorkers(rows, volume int) int {
	workers := runtime.GOMAXPROCS(0)
	if volume < parallelThreshold || workers < 2 || rows < 2*mr {
		return 1
	}
	return min(workers, rows)
}

// parallelRows splits [0, rows) into contiguous chunks and runs fn on each,
// in parallel when volume exceeds parallelThreshold. Chunk boundaries are
// aligned to the micro-kernel height so no mr-row tile straddles workers,
// and at most min(GOMAXPROCS, ceil(rows/chunk)) goroutines are spawned.
// Results are independent of the worker count: chunking only partitions
// rows, never the accumulation order within an output element.
func parallelRows(rows, volume int, fn func(lo, hi int)) {
	parallelRowsAligned(rows, volume, mr, fn)
}

// parallelRowsAligned is parallelRows with an explicit tile height: the
// f64 driver aligns chunks to mr, the f32 driver to its taller mr32 tile.
// Alignment is what keeps results worker-count independent — every chunk
// start is a tile-height multiple, so the same rows land in full tiles
// (assembly kernel) versus the row remainder (scalar kernel) no matter
// how many workers split the range.
func parallelRowsAligned(rows, volume, align int, fn func(lo, hi int)) {
	workers := rowWorkers(rows, volume)
	if workers < 2 {
		fn(0, rows)
		return
	}
	// Compute the chunk from the clamped worker count, then round up to a
	// multiple of the tile height; the number of spawned goroutines is
	// ceil(rows/chunk), which never exceeds workers.
	chunk := (rows + workers - 1) / workers
	chunk = (chunk + align - 1) / align * align
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		hi := min(lo+chunk, rows)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: Transpose needs a 2-D operand, got %v", a.Shape))
	}
	out := New(a.Shape[1], a.Shape[0])
	TransposeInto(out, a)
	return out
}

// transposeTile is the cache-block edge for TransposeInto: an 8×8 tile of
// float64 is 512 B, so source and destination tiles both sit in L1.
const transposeTile = 8

// TransposeInto writes aᵀ into dst (shape n×m for a m×n), blocked so both
// the row-major reads and the column-major writes stay cache-resident.
// dst must not alias a. Hot paths pass a pooled dst (see GetTensor) so
// transposition allocates nothing.
func TransposeInto(dst, a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: TransposeInto needs a 2-D operand, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	checkDst("TransposeInto", dst, n, m)
	for ii := 0; ii < m; ii += transposeTile {
		ih := min(ii+transposeTile, m)
		for jj := 0; jj < n; jj += transposeTile {
			jh := min(jj+transposeTile, n)
			for i := ii; i < ih; i++ {
				row := a.Data[i*n : (i+1)*n]
				for j := jj; j < jh; j++ {
					dst.Data[j*m+i] = row[j]
				}
			}
		}
	}
	return dst
}

// MatVec returns a·x for a 2-D a (m×n) and a flat x of length n.
func MatVec(a, x *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatVec needs a 2-D matrix, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	if x.Size() != n {
		panic(fmt.Sprintf("tensor: MatVec dimension mismatch %v·%v", a.Shape, x.Shape))
	}
	out := New(m)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		s := 0.0
		for j, v := range row {
			s += v * x.Data[j]
		}
		out.Data[i] = s
	}
	return out
}
