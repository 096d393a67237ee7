package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor32 is the dense, row-major float32 sibling of Tensor — the storage
// type of the f32 compute tier (DESIGN.md §14). It deliberately carries
// only what the kernels, benches, and tests need: training code keeps
// float64 storage and reaches the f32 kernels through the precision
// policy, so Tensor32 is the tier's native surface rather than a parallel
// re-implementation of the whole tensor API.
type Tensor32 struct {
	// Shape holds the extent of each dimension, outermost first.
	Shape []int
	// Data is the flat row-major backing store; len(Data) == product(Shape).
	Data []float32

	// pooled marks a tensor handed out by GetTensor32; PutTensor32 takes
	// back only those.
	pooled bool
}

// New32 returns a zero-filled float32 tensor with the given shape.
func New32(shape ...int) *Tensor32 {
	n := shapeVolume(shape)
	return &Tensor32{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice32 wraps data in a tensor with the given shape. The slice is
// used directly (not copied); its length must match the shape volume.
func FromSlice32(data []float32, shape ...int) *Tensor32 {
	t := &Tensor32{Shape: append([]int(nil), shape...), Data: data}
	if len(data) != t.Size() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)",
			len(data), shape, t.Size()))
	}
	return t
}

// Size returns the total number of elements.
func (t *Tensor32) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Dims returns the number of dimensions.
func (t *Tensor32) Dims() int { return len(t.Shape) }

// Clone returns a deep copy.
func (t *Tensor32) Clone() *Tensor32 {
	c := New32(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Zero sets every element to 0.
func (t *Tensor32) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor32) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor32) SameShape(o *Tensor32) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// RandNormal fills t with float32-rounded samples from N(mean, std²),
// drawn from the same generator sequence the float64 initializers use.
func (t *Tensor32) RandNormal(rng *rand.Rand, mean, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(mean + rng.NormFloat64()*std)
	}
}

// Equal32 reports whether a and b have the same shape and elementwise
// values within tolerance tol.
func Equal32(a, b *Tensor32, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(float64(a.Data[i])-float64(b.Data[i])) > tol {
			return false
		}
	}
	return true
}

// String renders a compact description (shape plus a few leading values).
func (t *Tensor32) String() string {
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	return fmt.Sprintf("Tensor32%v%v…", t.Shape, t.Data[:n])
}
