package tensor

import (
	"fmt"
	"time"
)

// Implicit-GEMM convolution. A convolution is a GEMM whose B operand is
// the im2col matrix, but that matrix never needs to exist: the GEMM
// micro-kernel only ever reads one K×nr panel of it at a time, and each
// panel row can be copied straight out of the input. The forward pass
// zero-pads the input once per batch into a pooled buffer, after which
// every panel row is a strided copy with no edge branches, and each pass
// stores its finished tiles straight into their destination:
//
//   - Forward: A = W's rows, B = patch panels of nr output positions of
//     one image; tile + bias lands in out[b, oc, s:s+nr].
//   - Weight gradient: A = one kernel tap's values across the batch,
//     which in the channel-major padded buffer are a plain slice of it
//     (see convPlan); B = gyᵀ panels of nr output channels. kc spans the
//     whole batch, and the tile adds into W.Grad transposed.
//   - Input gradient: A = Wᵀ's rows, B = gy panels of nr positions; the
//     tile is scatter-added into a zero-padded image, which is cropped
//     into dX once the image is done.
//
// One generic driver serves both precision tiers. Panels and A rows hold
// the tier's element type P (narrowed at pack time under F32), the
// tier's micro-kernel fills the tile, and every store widens into the
// float64 destination. Only the tile shape and micro-kernel (tileOf,
// kernelTile) differ by precision.
//
// Bit-identity with the im2col lowering (TestConvMatchesLowering holds
// it): each output element is the same fused-multiply-add chain the
// lowered GEMM computes for it — same k order, starting from +0, split
// at kcBlock with float64 sums across blocks, bias added at store — and
// FMA is commutative in its multiplicands, so swapping the roles of A
// and B changes nothing. The weight gradient is one chain over all
// output positions, as in the lowering's transADirect path. That path
// skips zero gradients, and this one adds the exact zeros instead, plus
// zero-gradient filler positions: exact for finite inputs (within
// float32 range under F32), because the accumulator starts at +0 and can
// never become -0, so adding ±0 leaves it unchanged. Input-gradient
// pixels sum their contributions in ascending output-position order
// from 0, as col2im does.

// tileOf returns the micro-kernel tile (rows, cols) for element type P:
// 4×8 for float64, 6×16 for float32.
func tileOf[P elem]() (rows, cols int) {
	var z P
	if _, ok := any(&z).(*float32); ok {
		return mr32, nr32
	}
	return mr, nr
}

// kernelTile overwrites c[r*cols+x] with Σ_{p<kc} a[r][p]·bp[p*cols+x]
// on P's micro-kernel, for the tile shape tileOf[P] reports.
func kernelTile[P elem](c *[mr32 * nr32]P, a *[mr32][]P, bp []P, kc int) {
	switch c := any(c).(type) {
	case *[mr32 * nr32]float64:
		a, bp := any(a).(*[mr32][]float64), *any(&bp).(*[]float64)
		microKernel((*[mr * nr]float64)(c[:mr*nr]), a[0], a[1], a[2], a[3], bp, kc)
	case *[mr32 * nr32]float32:
		a, bp := any(a).(*[mr32][]float32), *any(&bp).(*[]float32)
		microKernel32(c, a[0], a[1], a[2], a[3], a[4], a[5], bp, kc)
	}
}

// scratch is a pooled buffer of either element type.
type scratch[P elem] struct {
	data []P
	t64  *Tensor
	t32  *Tensor32
}

func getScratch[P elem](n int) scratch[P] {
	var s scratch[P]
	switch d := any(&s.data).(type) {
	case *[]float64:
		s.t64 = GetTensor(n)
		*d = s.t64.Data
	case *[]float32:
		s.t32 = GetTensor32(n)
		*d = s.t32.Data
	}
	return s
}

func (s scratch[P]) release() {
	PutTensor(s.t64)
	PutTensor32(s.t32)
}

// asPanel returns src as tier elements: src itself for float64, else src
// narrowed into s, which is taken from the pool when it is too small and
// which the caller releases.
func asPanel[P elem](s *scratch[P], src []float64) []P {
	if p, ok := any(&src).(*[]P); ok {
		return *p
	}
	if len(s.data) < len(src) {
		s.release()
		*s = getScratch[P](len(src))
	}
	dst := s.data[:len(src)]
	for i, v := range src {
		dst[i] = P(v)
	}
	return dst
}

// convPlan is the index arithmetic the passes share.
//
// The padded input is laid out so that zero padding is shared between
// neighbours. A row holds Pad zeros and then InW values, ws = InW+Pad
// elements; a row's right padding is the next row's left padding. An
// image holds Pad zero rows and then InH rows, plane = (InH+Pad)*ws
// elements; its bottom padding is the next image's top padding. The
// buffer is channel-major: channel c of image b starts at (c*N +
// b)*plane, and a zero tail of Pad*ws+Pad elements pads the last image.
// Padded pixel (y, x) of an image is then at y*ws + x for every y <
// InH+2Pad and x < InW+2Pad.
//
// So kernel tap j = (c, ky, kx) reads, at batch-wide position q, the
// element tap(j) + q of the whole buffer, and the weight gradient's A
// rows are slices of it, with no gather. Real output positions sit at q
// = b*plane + (oy*ws + ox)*Stride; the positions in between are filler,
// given a zero output gradient. Within one image, output position s =
// (oy, ox) reads from tap(j) + at(s).
type convPlan struct {
	g          ConvGeom
	n, outC, k int
	oh, ow, sp int // output height, width, positions per image
	ws, plane  int // padded row and image strides
	size       int // padded batch: InC*N*plane plus the zero tail
}

func newConvPlan(g ConvGeom, n, outC int) convPlan {
	ws := g.InW + g.Pad
	plane := (g.InH + g.Pad) * ws
	return convPlan{
		g: g, n: n, outC: outC, k: g.InC * g.KH * g.KW,
		oh: g.OutH(), ow: g.OutW(), sp: g.OutH() * g.OutW(),
		ws: ws, plane: plane, size: g.InC*n*plane + g.Pad*ws + g.Pad,
	}
}

// taps appends the offset of every kernel tap j = (c, ky, kx), in j
// order, for padded channels cs elements apart.
func (pl *convPlan) taps(dst []int, cs int) []int {
	g := pl.g
	for c := 0; c < g.InC; c++ {
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				dst = append(dst, c*cs+ky*pl.ws+kx)
			}
		}
	}
	return dst
}

func (pl *convPlan) at(s int) int {
	return (s/pl.ow*pl.ws + s%pl.ow) * pl.g.Stride
}

// volume is m·n·k of each of the conv's three GEMMs.
func (pl *convPlan) volume() int { return pl.n * pl.sp * pl.outC * pl.k }

// run is a stretch of panel lanes [x0, x1) on one output row, reading
// the padded image from off with the conv stride.
type run struct{ x0, x1, off int }

// rowRuns splits positions s0 .. s0+w of one image into per-output-row
// runs; dst has room for nr32 runs.
func (pl *convPlan) rowRuns(dst *[nr32]run, s0, w int) []run {
	n := 0
	for x := 0; x < w; {
		l := min(w-x, pl.ow-(s0+x)%pl.ow)
		dst[n] = run{x, x + l, pl.at(s0 + x)}
		n++
		x += l
	}
	return dst[:n]
}

// checkConv validates the geometry and the kernel shape [outC,
// InC*KH*KW], returning outC.
func checkConv(op string, w *Tensor, g ConvGeom) (outC int) {
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("%s: %v", op, err))
	}
	k := g.InC * g.KH * g.KW
	if w.Dims() != 2 || w.Shape[1] != k {
		panic(fmt.Sprintf("tensor: %s kernel shape %v, want [outC %d]", op, w.Shape, k))
	}
	return w.Shape[0]
}

func checkShape(op, what string, t *Tensor, want ...int) {
	ok := t.Dims() == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = t.Shape[i] == want[i]
	}
	if !ok {
		// Copying want keeps the variadic slice on the caller's stack.
		panic(fmt.Sprintf("tensor: %s %s shape %v, want %v", op, what, t.Shape, append([]int(nil), want...)))
	}
}

// convClock starts timing a conv pass of the given GEMM volume for the
// GEMM metrics; passes below gemmTimedVolume skip the clock.
func convClock(vol int) time.Time {
	if vol < gemmTimedVolume {
		return time.Time{}
	}
	return time.Now()
}

// convRecord accounts a pass started by convClock.
func convRecord(vol int, start time.Time) {
	if !start.IsZero() {
		recordGEMM(vol, time.Since(start))
	}
}

// ConvForwardInto computes out = conv(x, w) + bias for x [N, InC, InH,
// InW], w [OutC, InC*KH*KW] (OIHW flattened) and bias [OutC], writing
// out [N, OutC, OutH, OutW]. It returns the zero-padded input (laid out
// as convPlan describes): a pooled buffer that ConvParamGrads reads and
// the caller releases with PutTensor. out must not alias x.
func ConvForwardInto(out, x, w *Tensor, bias []float64, g ConvGeom) (padded *Tensor) {
	const op = "ConvForwardInto"
	outC := checkConv(op, w, g)
	n := x.Shape[0]
	checkShape(op, "input", x, n, g.InC, g.InH, g.InW)
	checkShape(op, "destination", out, n, outC, g.OutH(), g.OutW())
	checkBias(op, bias, outC)
	pl := newConvPlan(g, n, outC)
	padded = GetTensor(pl.size)
	start := convClock(pl.volume())
	pl.pad(padded.Data, x.Data)
	if useF32() {
		convForward[float32](&pl, out.Data, padded.Data, w.Data, bias)
	} else {
		convForward[float64](&pl, out.Data, padded.Data, w.Data, bias)
	}
	convRecord(pl.volume(), start)
	return padded
}

// convForward fans the forward pass out over images.
func convForward[P elem](pl *convPlan, out, padded, w, bias []float64) {
	var ws scratch[P]
	wa := asPanel(&ws, w)
	if rowWorkers(pl.n, pl.volume()) < 2 {
		convForwardImages(pl, out, padded, wa, bias, 0, pl.n)
	} else {
		p := *pl // only the parallel path pays for a heap copy
		parallelRowsAligned(p.n, p.volume(), 1, func(lo, hi int) {
			convForwardImages(&p, out, padded, wa, bias, lo, hi)
		})
	}
	ws.release()
}

// convForwardImages computes the outputs of images [lo, hi), one panel of
// nr output positions at a time.
func convForwardImages[P elem](pl *convPlan, out, padded []float64, wa []P, bias []float64, lo, hi int) {
	mr, nr := tileOf[P]()
	g, k := pl.g, pl.k
	bp := GetTensor(k * nr)
	var bn scratch[P]
	var tapBuf [256]int
	taps := pl.taps(tapBuf[:0], pl.n*pl.plane)
	var ctile [mr32 * nr32]P
	var a [mr32][]P
	var runs [nr32]run
	for b := lo; b < hi; b++ {
		img := padded[b*pl.plane:]
		o := out[b*pl.outC*pl.sp : (b+1)*pl.outC*pl.sp]
		for s0 := 0; s0 < pl.sp; s0 += nr {
			w := min(nr, pl.sp-s0)
			packPatches(bp.Data, img, taps, pl.rowRuns(&runs, s0, w), w, nr, g.Stride)
			panel := asPanel(&bn, bp.Data)
			for pc := 0; pc < k; pc += kcBlock {
				kcb := min(kcBlock, k-pc)
				for i := 0; i < pl.outC; i += mr {
					rows := min(mr, pl.outC-i)
					for r := 0; r < mr; r++ {
						ri := i + min(r, rows-1) // alias missing rows to the last
						a[r] = wa[ri*k+pc : ri*k+pc+kcb]
					}
					kernelTile(&ctile, &a, panel[pc*nr:(pc+kcb)*nr], kcb)
					for r := 0; r < rows; r++ {
						c := ctile[r*nr : r*nr+w]
						dst := o[(i+r)*pl.sp+s0:][:len(c)]
						if pc == 0 {
							bv := bias[i+r]
							for x, v := range c {
								dst[x] = float64(v) + bv
							}
						} else {
							for x, v := range c {
								dst[x] += float64(v)
							}
						}
					}
				}
			}
		}
	}
	bn.release()
	PutTensor(bp)
}

// pad writes the batch x [N, InC, InH, InW] into the zero-padded layout
// convPlan describes, overwriting all of dst.
func (pl *convPlan) pad(dst, x []float64) {
	g := pl.g
	for c := 0; c < g.InC; c++ {
		for b := 0; b < pl.n; b++ {
			img := dst[(c*pl.n+b)*pl.plane : (c*pl.n+b+1)*pl.plane]
			src := x[(b*g.InC+c)*g.InH*g.InW:]
			if g.Pad > 0 {
				clear(img)
			}
			for y := 0; y < g.InH; y++ {
				copy(img[(y+g.Pad)*pl.ws+g.Pad:][:g.InW], src[y*g.InW:])
			}
		}
	}
	clear(dst[g.InC*pl.n*pl.plane : pl.size])
}

// packPatches fills the K×nr panel bp with the patches of the output
// positions covered by runs: bp[j*nr+x] = img[taps[j] + at(s0+x)], lanes
// w..nr zeroed.
func packPatches(bp, img []float64, taps []int, runs []run, w, nr, st int) {
	if w < nr {
		for j := range taps {
			clear(bp[j*nr+w : (j+1)*nr])
		}
	}
	for _, r := range runs {
		l := r.x1 - r.x0
		// Fixed-size moves for the usual run widths, where memmove's call
		// overhead would dominate.
		switch {
		case st == 1 && l == 8:
			for j, t := range taps {
				*(*[8]float64)(bp[j*nr+r.x0:]) = *(*[8]float64)(img[t+r.off:])
			}
		case st == 1 && l == 4:
			for j, t := range taps {
				*(*[4]float64)(bp[j*nr+r.x0:]) = *(*[4]float64)(img[t+r.off:])
			}
		case st == 1:
			for j, t := range taps {
				copy(bp[j*nr+r.x0:j*nr+r.x0+l], img[t+r.off:])
			}
		default:
			for j, t := range taps {
				d, s := bp[j*nr+r.x0:j*nr+r.x0+l], img[t+r.off:]
				for x := range d {
					d[x] = s[x*st]
				}
			}
		}
	}
}

// ConvParamGrads adds one batch's kernel and bias gradients into wGrad
// [OutC, InC*KH*KW] and bGrad [OutC], given the padded input returned by
// ConvForwardInto and the output gradient gy [N, OutC, OutH, OutW].
func ConvParamGrads(wGrad *Tensor, bGrad []float64, padded, gy *Tensor, g ConvGeom) {
	const op = "ConvParamGrads"
	outC := checkConv(op, wGrad, g)
	n := gy.Shape[0]
	pl := newConvPlan(g, n, outC)
	checkShape(op, "output gradient", gy, n, outC, pl.oh, pl.ow)
	checkShape(op, "padded input", padded, pl.size)
	checkBias(op, bGrad, outC)
	start := convClock(pl.volume())
	if useF32() {
		convWeightGrad[float32](&pl, wGrad.Data, padded.Data, gy.Data)
	} else {
		convWeightGrad[float64](&pl, wGrad.Data, padded.Data, gy.Data)
	}
	convRecord(pl.volume(), start)
	for b := 0; b < n; b++ {
		for s := 0; s < pl.sp; s++ {
			for oc := range bGrad {
				bGrad[oc] += gy.Data[(b*outC+oc)*pl.sp+s]
			}
		}
	}
}

// convWeightGrad packs gyᵀ into nr-channel panels over the batch-wide
// positions once, zero at filler positions, then fans the kernel taps
// out over workers in tile-height groups.
func convWeightGrad[P elem](pl *convPlan, wGrad, padded, gy []float64) {
	mr, nr := tileOf[P]()
	st := pl.g.Stride
	// Positions up to and including the batch's last real one.
	np := (pl.n-1)*pl.plane + ((pl.oh-1)*pl.ws+pl.ow-1)*st + 1
	panels := (pl.outC + nr - 1) / nr
	gp := getScratch[P](panels * np * nr)
	clear(gp.data)
	for b := 0; b < pl.n; b++ {
		for oc := 0; oc < pl.outC; oc++ {
			src := gy[(b*pl.outC+oc)*pl.sp : (b*pl.outC+oc+1)*pl.sp]
			dst := gp.data[oc/nr*np*nr+b*pl.plane*nr+oc%nr:]
			for oy := 0; oy < pl.oh; oy++ {
				d := dst[oy*st*pl.ws*nr:]
				for ox, v := range src[oy*pl.ow : (oy+1)*pl.ow] {
					d[ox*st*nr] = P(v)
				}
			}
		}
	}
	var ps scratch[P]
	xa := asPanel(&ps, padded)
	if rowWorkers(pl.k, pl.volume()) < 2 {
		convWeightGradTaps(pl, wGrad, xa, gp.data, np, 0, pl.k)
	} else {
		p := *pl
		parallelRowsAligned(p.k, p.volume(), mr, func(lo, hi int) {
			convWeightGradTaps(&p, wGrad, xa, gp.data, np, lo, hi)
		})
	}
	ps.release()
	gp.release()
}

// convWeightGradTaps computes the gradient of kernel taps [lo, hi), one
// kernel call per tile and channel panel, each a single chain over all
// np batch-wide positions.
func convWeightGradTaps[P elem](pl *convPlan, wGrad []float64, xa, gp []P, np, lo, hi int) {
	mr, nr := tileOf[P]()
	var tapBuf [256]int
	taps := pl.taps(tapBuf[:0], pl.n*pl.plane)
	var ctile [mr32 * nr32]P
	var a [mr32][]P
	for i := lo; i < hi; i += mr {
		rows := min(mr, hi-i)
		for r := 0; r < mr; r++ {
			t := taps[i+min(r, rows-1)]
			a[r] = xa[t : t+np]
		}
		for q := 0; q*nr < pl.outC; q++ {
			kernelTile(&ctile, &a, gp[q*np*nr:(q+1)*np*nr], np)
			for x := 0; x < min(nr, pl.outC-q*nr); x++ {
				dst := wGrad[(q*nr+x)*pl.k+i:]
				for r := 0; r < rows; r++ {
					dst[r] += float64(ctile[r*nr+x])
				}
			}
		}
	}
}

// ConvInputGradInto writes the input gradient dx [N, InC, InH, InW] of a
// convolution with kernel w [OutC, InC*KH*KW], given the output gradient
// gy [N, OutC, OutH, OutW]. Returns dx.
func ConvInputGradInto(dx, gy, w *Tensor, g ConvGeom) *Tensor {
	const op = "ConvInputGradInto"
	outC := checkConv(op, w, g)
	n := gy.Shape[0]
	checkShape(op, "output gradient", gy, n, outC, g.OutH(), g.OutW())
	checkShape(op, "destination", dx, n, g.InC, g.InH, g.InW)
	pl := newConvPlan(g, n, outC)
	start := convClock(pl.volume())
	if useF32() {
		convInputGrad[float32](&pl, dx.Data, gy.Data, w.Data)
	} else {
		convInputGrad[float64](&pl, dx.Data, gy.Data, w.Data)
	}
	convRecord(pl.volume(), start)
	return dx
}

// convInputGrad transposes W into A rows once, then fans the batch out
// over images.
func convInputGrad[P elem](pl *convPlan, dx, gy, w []float64) {
	wt := getScratch[P](pl.k * pl.outC)
	for oc := 0; oc < pl.outC; oc++ {
		for j, v := range w[oc*pl.k : (oc+1)*pl.k] {
			wt.data[j*pl.outC+oc] = P(v)
		}
	}
	if rowWorkers(pl.n, pl.volume()) < 2 {
		convInputGradImages(pl, dx, gy, wt.data, 0, pl.n)
	} else {
		p := *pl
		parallelRowsAligned(p.n, p.volume(), 1, func(lo, hi int) {
			convInputGradImages(&p, dx, gy, wt.data, lo, hi)
		})
	}
	wt.release()
}

// convInputGradImages computes dx for images [lo, hi). Each image's
// gradient accumulates in a zero-padded image laid out as convPlan
// describes, with channels plane apart: per panel
// of positions, tiles run over the taps in descending order and each
// tap's lanes scatter in ascending position order, so every pixel
// receives its contributions in ascending output-position order, the
// order col2im adds them in.
func convInputGradImages[P elem](pl *convPlan, dx, gy []float64, wt []P, lo, hi int) {
	mr, nr := tileOf[P]()
	g, k, outC := pl.g, pl.k, pl.outC
	inImg := g.InC * g.InH * g.InW
	bp := GetTensor(outC * nr)
	var bn scratch[P]
	dp := GetTensor(g.InC*pl.plane + g.Pad*pl.ws + g.Pad)
	img := dp.Data
	var tapBuf [256]int
	taps := pl.taps(tapBuf[:0], pl.plane)
	var ctile [mr32 * nr32]P
	var acc [mr32 * nr32]float64
	var a [mr32][]P
	var runs [nr32]run
	for b := lo; b < hi; b++ {
		clear(img)
		gimg := gy[b*outC*pl.sp : (b+1)*outC*pl.sp]
		for s0 := 0; s0 < pl.sp; s0 += nr {
			w := min(nr, pl.sp-s0)
			for oc := 0; oc < outC; oc++ {
				row := bp.Data[oc*nr : (oc+1)*nr]
				copy(row[:w], gimg[oc*pl.sp+s0:])
				clear(row[w:])
			}
			panel := asPanel(&bn, bp.Data)
			rr := pl.rowRuns(&runs, s0, w)
			for i := (k - 1) / mr * mr; i >= 0; i -= mr {
				rows := min(mr, k-i)
				for pc := 0; pc < outC; pc += kcBlock {
					kcb := min(kcBlock, outC-pc)
					for r := 0; r < mr; r++ {
						ri := i + min(r, rows-1)
						a[r] = wt[ri*outC+pc : ri*outC+pc+kcb]
					}
					kernelTile(&ctile, &a, panel[pc*nr:(pc+kcb)*nr], kcb)
					if outC > kcBlock {
						// Later k-blocks add in float64, as gemm does.
						for e, v := range ctile[:rows*nr] {
							if pc == 0 {
								acc[e] = float64(v)
							} else {
								acc[e] += float64(v)
							}
						}
					}
				}
				if outC > kcBlock {
					scatterTile(img, acc[:], taps[i:i+rows], nr, rr, g.Stride)
				} else {
					scatterTile(img, ctile[:], taps[i:i+rows], nr, rr, g.Stride)
				}
			}
		}
		out := dx[b*inImg : (b+1)*inImg]
		for c := 0; c < g.InC; c++ {
			for y := 0; y < g.InH; y++ {
				copy(out[(c*g.InH+y)*g.InW:(c*g.InH+y+1)*g.InW], img[c*pl.plane+(y+g.Pad)*pl.ws+g.Pad:])
			}
		}
	}
	PutTensor(dp)
	bn.release()
	PutTensor(bp)
}

// scatterTile adds a tile's rows into the padded image, last row first:
// row r's lanes land at taps[r] + at(s0+x) for the positions in runs.
func scatterTile[S elem](img []float64, tile []S, taps []int, nr int, runs []run, st int) {
	for r := len(taps) - 1; r >= 0; r-- {
		for _, rn := range runs {
			src := tile[r*nr+rn.x0 : r*nr+rn.x1]
			d := img[taps[r]+rn.off:]
			if st == 1 && len(src) == 8 {
				// Unrolled for the usual run width.
				d, s := (*[8]float64)(d), (*[8]S)(src)
				d[0] += float64(s[0])
				d[1] += float64(s[1])
				d[2] += float64(s[2])
				d[3] += float64(s[3])
				d[4] += float64(s[4])
				d[5] += float64(s[5])
				d[6] += float64(s[6])
				d[7] += float64(s[7])
			} else if st == 1 {
				d = d[:len(src)]
				for x, v := range src {
					d[x] += float64(v)
				}
			} else {
				for x, v := range src {
					d[x*st] += float64(v)
				}
			}
		}
	}
}
