package nn

import (
	"math"

	"github.com/cip-fl/cip/internal/tensor"
)

// ReLU is the rectified linear activation.
type ReLU struct{}

type reluCache struct {
	y *tensor.Tensor
}

// Forward zeroes negative activations. The output doubles as the backward
// gate (y > 0 exactly when the input was positive), so no mask is stored.
func (ReLU) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, Cache) {
	out := tensor.ReluInto(tensor.Like(x, x.Shape...), x)
	return out, &reluCache{y: out}
}

// Backward gates the gradient by the forward output's sign.
func (ReLU) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	c := cache.(*reluCache)
	return tensor.ReluGateInto(tensor.Like(grad, grad.Shape...), c.y, grad)
}

// Params returns nil; ReLU has no parameters.
func (ReLU) Params() []*Param { return nil }

// LeakyReLU is ReLU with a small negative slope.
type LeakyReLU struct {
	Slope float64
}

type leakyCache struct {
	neg []bool
}

// Forward scales negative activations by Slope.
func (l LeakyReLU) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, Cache) {
	out := tensor.New(x.Shape...)
	neg := make([]bool, len(x.Data))
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = l.Slope * v
			neg[i] = true
		}
	}
	return out, &leakyCache{neg: neg}
}

// Backward scales gradients on the negative side by Slope.
func (l LeakyReLU) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	c := cache.(*leakyCache)
	out := tensor.New(grad.Shape...)
	for i, n := range c.neg {
		if n {
			out.Data[i] = l.Slope * grad.Data[i]
		} else {
			out.Data[i] = grad.Data[i]
		}
	}
	return out
}

// Params returns nil; LeakyReLU has no parameters.
func (LeakyReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct{}

type tanhCache struct {
	y *tensor.Tensor
}

// Forward applies tanh elementwise.
func (Tanh) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, Cache) {
	out := tensor.New(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = math.Tanh(v)
	}
	return out, &tanhCache{y: out}
}

// Backward multiplies the gradient by 1 − tanh².
func (Tanh) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	c := cache.(*tanhCache)
	out := tensor.New(grad.Shape...)
	for i, g := range grad.Data {
		y := c.y.Data[i]
		out.Data[i] = g * (1 - y*y)
	}
	return out
}

// Params returns nil; Tanh has no parameters.
func (Tanh) Params() []*Param { return nil }
