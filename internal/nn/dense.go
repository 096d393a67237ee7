package nn

import (
	"math/rand"

	"github.com/cip-fl/cip/internal/tensor"
)

// Dense is a fully connected layer: out = x·Wᵀ + b for x of shape [N, in].
type Dense struct {
	In, Out int
	W       *Param // [Out, In]
	B       *Param // [Out]
}

// NewDense constructs a Dense layer with He initialization.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   NewParam("dense.w", out, in),
		B:   NewParam("dense.b", out),
	}
	d.W.Value.HeInit(rng, in)
	return d
}

type denseCache struct {
	x *tensor.Tensor
}

// Forward computes x·Wᵀ + b, with the bias fused into the GEMM epilogue.
func (d *Dense) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, Cache) {
	out := tensor.Like(x, x.Shape[0], d.Out)
	tensor.MatMulTransBBiasInto(out, x, d.W.Value, d.B.Value.Data)
	return out, &denseCache{x: x}
}

// Backward accumulates dW = gradᵀ·x and db = Σ grad, returning grad·W.
// dW is staged through a pooled scratch tensor so the accumulation
// allocates nothing.
func (d *Dense) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	d.BackwardParams(cache, grad)
	return tensor.MatMulInto(tensor.Like(grad, grad.Shape[0], d.In), grad, d.W.Value)
}

// BackwardParams implements ParamBackprop: weight/bias gradients without
// the grad·W product a first layer never needs.
func (d *Dense) BackwardParams(cache Cache, grad *tensor.Tensor) {
	c := cache.(*denseCache)
	dW := tensor.GetTensor(d.Out, d.In)
	tensor.MatMulTransAInto(dW, grad, c.x) // [Out, In]
	tensor.AddInPlace(d.W.Grad, dW)
	tensor.PutTensor(dW)
	n := grad.Shape[0]
	for i := 0; i < n; i++ {
		row := grad.Data[i*d.Out : (i+1)*d.Out]
		for j := range row {
			d.B.Grad.Data[j] += row[j]
		}
	}
}

// Params returns the weight and bias.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }
