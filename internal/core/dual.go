package core

import (
	"math/rand"

	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

// DualChannelModel is the paper's Fig. 3 architecture: both blend
// components pass through ONE shared backbone (two forward passes, shared
// weights), their feature vectors are concatenated, and a fully connected
// head produces the logits. Sharing the backbone is what keeps the
// parameter overhead at a fraction of a percent (Table XI): only the head
// doubles its input width.
type DualChannelModel struct {
	Backbone *model.Backbone
	Head     *nn.Dense // [classes, Channels*FeatDim]
	// Channels is 2 for the paper's architecture. 1 builds the
	// single-channel ablation (only the (1−α)x+αt component is used),
	// which the ablation experiment contrasts against the full design.
	Channels int
}

// NewDualChannelModel builds a dual-channel model over a fresh backbone of
// the given family.
func NewDualChannelModel(rng *rand.Rand, arch model.Arch, in model.Input, numClasses int) *DualChannelModel {
	bb := model.NewBackbone(rng, arch, in)
	return &DualChannelModel{
		Backbone: bb,
		Head:     nn.NewDense(rng, 2*bb.FeatDim, numClasses),
		Channels: 2,
	}
}

// NewSingleChannelModel builds the single-channel ablation: the same
// backbone family, but only the first blend component feeds the head.
func NewSingleChannelModel(rng *rand.Rand, arch model.Arch, in model.Input, numClasses int) *DualChannelModel {
	bb := model.NewBackbone(rng, arch, in)
	return &DualChannelModel{
		Backbone: bb,
		Head:     nn.NewDense(rng, bb.FeatDim, numClasses),
		Channels: 1,
	}
}

// DualCache carries both backbone pass caches plus the head cache.
type DualCache struct {
	bb1, bb2 nn.Cache
	head     nn.Cache
	featDim  int
	x2Shape  []int // retained in single-channel mode to shape the zero g2
}

// Forward runs both channels through the shared backbone and the head.
// In single-channel ablation mode only x1 is used.
func (m *DualChannelModel) Forward(x1, x2 *tensor.Tensor, train bool) (*tensor.Tensor, *DualCache) {
	f1, c1 := m.Backbone.Forward(x1, train)
	if m.channels() == 1 {
		logits, ch := m.Head.Forward(f1, train)
		return logits, &DualCache{bb1: c1, head: ch, featDim: m.Backbone.FeatDim, x2Shape: x2.Shape}
	}
	f2, c2 := m.Backbone.Forward(x2, train)
	joint := concatFeatures(f1, f2)
	logits, ch := m.Head.Forward(joint, train)
	return logits, &DualCache{bb1: c1, bb2: c2, head: ch, featDim: m.Backbone.FeatDim}
}

func (m *DualChannelModel) channels() int {
	if m.Channels == 1 {
		return 1
	}
	return 2
}

// Backward backpropagates the logit gradient through the head and both
// backbone passes (parameter gradients accumulate across the two passes,
// realizing the weight sharing) and returns the gradients with respect to
// each channel input. In single-channel mode g2 is zero.
func (m *DualChannelModel) Backward(cache *DualCache, grad *tensor.Tensor) (g1, g2 *tensor.Tensor) {
	jointGrad := m.Head.Backward(cache.head, grad)
	if m.channels() == 1 {
		g1 = m.Backbone.Backward(cache.bb1, jointGrad)
		g2 = tensor.Like(g1, cache.x2Shape...)
		g2.Zero()
		return g1, g2
	}
	gf1, gf2 := splitFeatures(jointGrad, cache.featDim)
	g1 = m.Backbone.Backward(cache.bb1, gf1)
	g2 = m.Backbone.Backward(cache.bb2, gf2)
	return g1, g2
}

// Params returns the shared backbone parameters plus the head.
func (m *DualChannelModel) Params() []*nn.Param {
	return append(m.Backbone.Params(), m.Head.Params()...)
}

// NumParams returns the total scalar parameter count (Table XI).
func (m *DualChannelModel) NumParams() int { return nn.NumParams(m.Params()) }

func concatFeatures(a, b *tensor.Tensor) *tensor.Tensor {
	n, fa := a.Shape[0], a.Shape[1]
	fb := b.Shape[1]
	out := tensor.Like(a, n, fa+fb)
	for i := 0; i < n; i++ {
		copy(out.Data[i*(fa+fb):], a.Data[i*fa:(i+1)*fa])
		copy(out.Data[i*(fa+fb)+fa:], b.Data[i*fb:(i+1)*fb])
	}
	return out
}

func splitFeatures(x *tensor.Tensor, fa int) (*tensor.Tensor, *tensor.Tensor) {
	n, tot := x.Shape[0], x.Shape[1]
	fb := tot - fa
	a := tensor.Like(x, n, fa)
	b := tensor.Like(x, n, fb)
	for i := 0; i < n; i++ {
		copy(a.Data[i*fa:], x.Data[i*tot:i*tot+fa])
		copy(b.Data[i*fb:], x.Data[i*tot+fa:(i+1)*tot])
	}
	return a, b
}
