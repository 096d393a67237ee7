package nn

import (
	"math/rand"
	"testing"

	"github.com/cip-fl/cip/internal/tensor"
)

func benchNet() (*Sequential, *tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(1))
	g := tensor.ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	g2 := tensor.ConvGeom{InC: 8, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	net := NewSequential(
		NewConv2D(rng, g, 8),
		ReLU{},
		NewConv2D(rng, g2, 8),
		ReLU{},
		MaxPool2D{Size: 2},
		Flatten{},
		NewDense(rng, 8*4*4, 10),
	)
	x := tensor.New(32, 3, 8, 8)
	x.RandNormal(rng, 0, 1)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	return net, x, labels
}

func BenchmarkForward(b *testing.B) {
	net, x, _ := benchNet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Forward(x, false)
	}
}

func BenchmarkForwardBackwardStep(b *testing.B) {
	net, x, labels := benchNet()
	opt := &SGD{LR: 0.01, Momentum: 0.9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ZeroGrads(net.Params())
		logits, cache := net.Forward(x, true)
		res := SoftmaxCrossEntropy(logits, labels)
		net.Backward(cache, res.Grad)
		opt.Step(net.Params())
	}
}

// BenchmarkConvForwardBackward isolates one Conv2D layer's train-mode
// forward + backward, the path the scratch arena exists for: the padded
// input and every panel come from the pool, so steady-state allocations
// are just the two escaping output tensors.
func BenchmarkConvForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := tensor.ConvGeom{InC: 8, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	c := NewConv2D(rng, g, 16)
	x := tensor.New(16, 8, 16, 16)
	x.RandNormal(rng, 0, 1)
	grad := tensor.New(16, 16, 16, 16)
	grad.RandNormal(rng, 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ZeroGrads(c.Params())
		_, cache := c.Forward(x, true)
		c.Backward(cache, grad)
	}
}

func BenchmarkSoftmaxCrossEntropy(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	logits := tensor.New(128, 100)
	logits.RandNormal(rng, 0, 2)
	labels := make([]int, 128)
	for i := range labels {
		labels[i] = rng.Intn(100)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SoftmaxCrossEntropy(logits, labels)
	}
}

func BenchmarkFlattenParams(b *testing.B) {
	net, _, _ := benchNet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FlattenParams(net.Params())
	}
}
