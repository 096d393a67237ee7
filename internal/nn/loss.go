package nn

import (
	"fmt"
	"math"

	"github.com/cip-fl/cip/internal/tensor"
)

// Softmax returns row-wise softmax probabilities for logits of shape [N, K],
// allocated Like logits.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	n, k := logits.Shape[0], logits.Shape[1]
	out := tensor.Like(logits, n, k)
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		s := 0.0
		orow := out.Data[i*k : (i+1)*k]
		for j, v := range row {
			e := math.Exp(v - m)
			orow[j] = e
			s += e
		}
		for j := range orow {
			orow[j] /= s
		}
	}
	return out
}

// CEResult bundles everything downstream consumers need from one softmax
// cross-entropy evaluation: the mean loss, per-sample losses (membership
// inference attacks threshold on these), the probabilities, and the
// gradient with respect to the logits.
type CEResult struct {
	Loss      float64
	PerSample []float64
	Probs     *tensor.Tensor
	Grad      *tensor.Tensor // d(mean loss)/d(logits), shape [N, K]
}

// SoftmaxCrossEntropy computes softmax + cross-entropy for integer labels.
// Probs and Grad are allocated Like logits; PerSample is always on the heap.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) CEResult {
	n, k := logits.Shape[0], logits.Shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for %d logits rows", len(labels), n))
	}
	probs := Softmax(logits)
	grad := tensor.Like(logits, n, k)
	per := make([]float64, n)
	total := 0.0
	inv := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		y := labels[i]
		if y < 0 || y >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, k))
		}
		p := probs.Data[i*k+y]
		l := -math.Log(math.Max(p, 1e-15))
		per[i] = l
		total += l
		grow := grad.Data[i*k : (i+1)*k]
		prow := probs.Data[i*k : (i+1)*k]
		for j := range grow {
			grow[j] = prow[j] * inv
		}
		grow[y] -= inv
	}
	return CEResult{Loss: total * inv, PerSample: per, Probs: probs, Grad: grad}
}

// PerSampleLosses evaluates a network on x/labels and returns the per-sample
// cross-entropy losses without any gradient computation. This is the basic
// probe used by loss-threshold membership inference attacks.
func PerSampleLosses(net Layer, x *tensor.Tensor, labels []int) []float64 {
	logits, _ := net.Forward(x, false)
	return SoftmaxCrossEntropy(logits, labels).PerSample
}

// Accuracy returns the fraction of rows whose argmax matches the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n, k := logits.Shape[0], logits.Shape[1]
	if n == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		best, arg := row[0], 0
		for j, v := range row {
			if v > best {
				best, arg = v, j
			}
		}
		if arg == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
