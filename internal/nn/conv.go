package nn

import (
	"fmt"
	"math/rand"

	"github.com/cip-fl/cip/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs with OIHW kernels,
// computed by the implicit-GEMM passes in internal/tensor.
type Conv2D struct {
	Geom tensor.ConvGeom
	OutC int
	W    *Param // [OutC, InC*KH*KW]
	B    *Param // [OutC]
}

// NewConv2D constructs a convolution with He initialization. It panics on a
// degenerate geometry; layer construction errors are programmer errors.
func NewConv2D(rng *rand.Rand, g tensor.ConvGeom, outC int) *Conv2D {
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("nn: %v", err))
	}
	fanIn := g.InC * g.KH * g.KW
	c := &Conv2D{
		Geom: g,
		OutC: outC,
		W:    NewParam("conv.w", outC, fanIn),
		B:    NewParam("conv.b", outC),
	}
	c.W.Value.HeInit(rng, fanIn)
	return c
}

// The conv cache is the zero-padded input that tensor.ConvForwardInto
// returns, allocated Like x; boxing the pointer into the Cache interface
// costs no allocation.

// Forward computes the convolution for x of shape [N, InC, InH, InW]. The
// padded input stays in the cache for Backward.
func (c *Conv2D) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, Cache) {
	g := c.Geom
	out := tensor.Like(x, x.Shape[0], c.OutC, g.OutH(), g.OutW())
	padded := tensor.ConvForwardInto(out, x, c.W.Value, c.B.Value.Data, g)
	return out, padded
}

// Backward accumulates kernel/bias gradients and returns the input
// gradient.
func (c *Conv2D) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	g := c.Geom
	c.BackwardParams(cache, grad)
	dx := tensor.Like(grad, grad.Shape[0], g.InC, g.InH, g.InW)
	return tensor.ConvInputGradInto(dx, grad, c.W.Value, g)
}

// BackwardParams implements ParamBackprop: kernel/bias gradients without
// the input-gradient kernel and scatter a first layer never needs.
func (c *Conv2D) BackwardParams(cache Cache, grad *tensor.Tensor) {
	tensor.ConvParamGrads(c.W.Grad, c.B.Grad.Data, cache.(*tensor.Tensor), grad, c.Geom)
}

// Params returns the kernel and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }
