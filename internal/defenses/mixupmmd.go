package defenses

import (
	"math/rand"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

// MixupMMDStep implements the Mixup + MMD defense (Li et al., CODASPY'21):
// the target model trains on mixup-blended sample pairs, and a maximum-
// mean-discrepancy penalty with weight Mu pulls the softmax output
// distribution on training members toward the distribution on reference
// (non-member) data, erasing the output signature MI attacks exploit.
//
// The MMD uses the linear kernel, for which
// MMD² = ‖mean(p_member) − mean(p_ref)‖² and the gradient with respect to
// each member output is 2·(mean_member − mean_ref)/n. The paper's Gaussian
// kernel adds smoothing but the same pull-together geometry; the linear
// form keeps the penalty exactly differentiable through our stack.
type MixupMMDStep struct {
	// Mu is the MMD penalty weight µ, the paper's privacy knob.
	Mu float64
	// MixAlpha shapes the mixup coefficient distribution (0 disables
	// mixup, leaving pure MMD).
	MixAlpha float64
	// Reference is held-out non-member data grounding the MMD target.
	Reference *datasets.Dataset

	rng *rand.Rand
	k   int
}

// NewMixupMMDStep builds the defense step.
func NewMixupMMDStep(mu, mixAlpha float64, reference *datasets.Dataset,
	numClasses int, rng *rand.Rand) *MixupMMDStep {
	return &MixupMMDStep{
		Mu:        mu,
		MixAlpha:  mixAlpha,
		Reference: reference,
		rng:       rand.New(rand.NewSource(rng.Int63())),
		k:         numClasses,
	}
}

// Step implements fl.TrainStep.
func (s *MixupMMDStep) Step(net nn.Layer, opt nn.Optimizer, x *tensor.Tensor, y []int) float64 {
	n := x.Shape[0]
	ss := x.Size() / n

	// Mixup: pair each sample with a random partner.
	lam := 1.0
	partner := make([]int, n)
	if s.MixAlpha > 0 {
		// Beta(α, α) approximated by a symmetric draw; mixup is robust to
		// the exact shape of the coefficient distribution.
		lam = 0.5 + (s.rng.Float64()-0.5)*s.MixAlpha
		if lam < 0 {
			lam = 0
		} else if lam > 1 {
			lam = 1
		}
		for i := range partner {
			partner[i] = s.rng.Intn(n)
		}
	} else {
		for i := range partner {
			partner[i] = i
		}
	}
	mixed := tensor.Like(x, x.Shape...)
	for i := 0; i < n; i++ {
		a := x.Data[i*ss : (i+1)*ss]
		b := x.Data[partner[i]*ss : (partner[i]+1)*ss]
		m := mixed.Data[i*ss : (i+1)*ss]
		for j := range m {
			m[j] = lam*a[j] + (1-lam)*b[j]
		}
	}

	nn.ZeroGrads(net.Params())
	logits, cache := net.Forward(mixed, true)

	// Mixup loss: λ·CE(y) + (1−λ)·CE(y_partner).
	resA := nn.SoftmaxCrossEntropy(logits, y)
	yb := make([]int, n)
	for i := range yb {
		yb[i] = y[partner[i]]
	}
	resB := nn.SoftmaxCrossEntropy(logits, yb)
	grad := tensor.Add(tensor.Scale(resA.Grad, lam), tensor.Scale(resB.Grad, 1-lam))

	// MMD penalty on the ORIGINAL (unmixed) member outputs vs reference.
	if s.Mu > 0 && s.Reference.Len() > 0 {
		refIdx := make([]int, n)
		for i := range refIdx {
			refIdx[i] = s.rng.Intn(s.Reference.Len())
		}
		ref := s.Reference.Subset(refIdx)
		rx, _ := ref.Batch(0, ref.Len())

		memLogits, memCache := net.Forward(x, true)
		memProbs := nn.Softmax(memLogits)
		refLogits, _ := net.Forward(rx, false)
		refProbs := nn.Softmax(refLogits)

		diff := make([]float64, s.k) // mean_member − mean_ref
		for i := 0; i < n; i++ {
			for j := 0; j < s.k; j++ {
				diff[j] += memProbs.Data[i*s.k+j] - refProbs.Data[i*s.k+j]
			}
		}
		for j := range diff {
			diff[j] /= float64(n)
		}
		// d(µ·MMD²)/d p_i = 2µ·diff/n for every member sample i.
		gradProbs := tensor.New(n, s.k)
		for i := 0; i < n; i++ {
			for j := 0; j < s.k; j++ {
				gradProbs.Data[i*s.k+j] = 2 * s.Mu * diff[j] / float64(n)
			}
		}
		nn.TrainBackward(net, memCache, softmaxBackward(memProbs, gradProbs))
	}

	nn.TrainBackward(net, cache, grad)
	opt.Step(net.Params())
	return lam*resA.Loss + (1-lam)*resB.Loss
}
