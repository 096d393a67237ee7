package nn

import (
	"fmt"

	"github.com/cip-fl/cip/internal/tensor"
)

// MaxPool2D is a non-overlapping max pooling over NCHW inputs.
type MaxPool2D struct {
	Size int // pooling window edge and stride
}

type maxPoolCache struct {
	argmax []int // flat input index of each output element's max
	in     [4]int
}

// Forward pools each Size×Size window to its maximum.
func (m MaxPool2D) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, Cache) {
	if m.Size <= 0 {
		panic(fmt.Sprintf("nn: MaxPool2D size must be positive, got %d", m.Size))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/m.Size, w/m.Size
	out := tensor.Like(x, n, c, oh, ow)
	argmax := tensor.IntsLike(x, out.Size())
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			inBase := (b*c + ch) * h * w
			outBase := (b*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := -1
					bestV := 0.0
					for ky := 0; ky < m.Size; ky++ {
						for kx := 0; kx < m.Size; kx++ {
							idx := inBase + (oy*m.Size+ky)*w + ox*m.Size + kx
							if best < 0 || x.Data[idx] > bestV {
								best, bestV = idx, x.Data[idx]
							}
						}
					}
					out.Data[outBase+oy*ow+ox] = bestV
					argmax[outBase+oy*ow+ox] = best
				}
			}
		}
	}
	return out, &maxPoolCache{argmax: argmax, in: [4]int{n, c, h, w}}
}

// Backward routes each output gradient to the input position that won the max.
func (m MaxPool2D) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	c := cache.(*maxPoolCache)
	out := tensor.Like(grad, c.in[:]...)
	out.Zero()
	for i, src := range c.argmax {
		out.Data[src] += grad.Data[i]
	}
	return out
}

// Params returns nil; pooling has no parameters.
func (MaxPool2D) Params() []*Param { return nil }

// GlobalAvgPool reduces NCHW input to [N, C] by averaging each channel's
// spatial plane — the GAP layer of the paper's dual-channel head (Fig. 3).
type GlobalAvgPool struct{}

type gapCache struct {
	inShape []int
}

// Forward averages over the spatial dimensions.
func (GlobalAvgPool) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, Cache) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := tensor.New(n, c)
	area := float64(h * w)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * h * w
			s := 0.0
			for i := 0; i < h*w; i++ {
				s += x.Data[base+i]
			}
			out.Data[b*c+ch] = s / area
		}
	}
	return out, &gapCache{inShape: append([]int(nil), x.Shape...)}
}

// Backward distributes each channel gradient uniformly over its plane.
func (GlobalAvgPool) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	cc := cache.(*gapCache)
	n, c, h, w := cc.inShape[0], cc.inShape[1], cc.inShape[2], cc.inShape[3]
	out := tensor.New(cc.inShape...)
	inv := 1.0 / float64(h*w)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			g := grad.Data[b*c+ch] * inv
			base := (b*c + ch) * h * w
			for i := 0; i < h*w; i++ {
				out.Data[base+i] = g
			}
		}
	}
	return out
}

// Params returns nil; pooling has no parameters.
func (GlobalAvgPool) Params() []*Param { return nil }

// Flatten reshapes [N, ...] input to [N, D].
type Flatten struct{}

type flattenCache struct {
	inShape []int
}

// Forward flattens all trailing dimensions.
func (Flatten) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, Cache) {
	n := x.Shape[0]
	d := x.Size() / n
	return x.Reshape(n, d), &flattenCache{inShape: append([]int(nil), x.Shape...)}
}

// Backward restores the original shape.
func (Flatten) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	c := cache.(*flattenCache)
	return grad.Reshape(c.inShape...)
}

// Params returns nil; Flatten has no parameters.
func (Flatten) Params() []*Param { return nil }
