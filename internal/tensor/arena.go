package tensor

import (
	"math"
	"sync"
)

// Arena is a step-scoped allocator for the tensors of one training step:
// activations, gradients, layer caches. The loop that owns a minibatch
// resets the arena and adopts the batch tensor; from then on every
// tensor.Like of the batch, or of anything derived from it, draws from the
// arena instead of the heap.
//
// Allocations are numbered in the order they happen after Reset, and
// allocation i reuses slot i's storage, which grows only when a request
// outgrows it. A training step makes the same allocations in the same
// order batch after batch, so each allocation site keeps one slot and,
// once the first batch has sized the slots, a step allocates nothing.
//
// Ownership rules (DESIGN.md §9.2):
//   - A tensor handed out by an arena is valid until the arena's next
//     Reset. Anything derived from an adopted batch that must outlive the
//     step has to be Cloned (Clone always allocates on the heap).
//   - Handed-out storage is uninitialised: each site overwrites all of it,
//     or zeroes it first. Race builds fill every hand-out with NaN (and
//     int slabs with a negative index) so that a site reading stale
//     storage shows up as a wrong result.
//   - An arena belongs to one goroutine. Kernel workers never allocate
//     from it; they use the scratch pool (GetTensor).
//   - A training call takes its arena with GetArena and gives it back with
//     PutArena when it returns, so a process keeps one arena per training
//     call running at once, not one per client.
//
// A nil *Arena is valid and allocates nothing: Reset does nothing, and
// Adopt leaves the batch on the heap path.
type Arena struct {
	hdrs  []*arenaTensor
	nhdr  int
	f64   slab[float64]
	ints  slab[int]
	bools slab[bool]
}

// arenaTensor is one header slot: a tensor header with inline shape
// storage, reused by the allocation of the same number every step.
type arenaTensor struct {
	t    Tensor
	dims [4]int
}

// slab is one element type's slots.
type slab[T any] struct {
	bufs [][]T
	next int
}

// take returns the next slot resized to n elements, growing it when it is
// too small.
func (s *slab[T]) take(n int) []T {
	if s.next == len(s.bufs) {
		s.bufs = append(s.bufs, nil)
	}
	b := s.bufs[s.next]
	if cap(b) < n {
		b = make([]T, n)
		s.bufs[s.next] = b
	}
	s.next++
	return b[:n]
}

// arenas is the free list of step arenas between training calls. An
// arena is taken for a call and given back when the call returns, so the
// arenas a process keeps follow the peak number of training calls running
// at once, not the number of clients. Like the scratch pool it is a
// mutex-guarded LIFO rather than a sync.Pool, so a collection never throws
// away the storage the next round refills.
var arenas struct {
	sync.Mutex
	free []*Arena
}

// GetArena returns a step arena for one training call. The caller owns it
// until PutArena.
func GetArena() *Arena {
	arenas.Lock()
	defer arenas.Unlock()
	n := len(arenas.free)
	if n == 0 {
		return new(Arena)
	}
	a := arenas.free[n-1]
	arenas.free = arenas.free[:n-1]
	return a
}

// PutArena gives a back for another training call to reuse. Every tensor
// a handed out becomes invalid.
func PutArena(a *Arena) {
	a.Reset()
	arenas.Lock()
	arenas.free = append(arenas.free, a)
	arenas.Unlock()
}

// Reset starts a new step: every tensor the arena handed out since the
// last Reset becomes invalid, and its storage is reused by the next
// allocations.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.nhdr = 0
	a.f64.next = 0
	a.ints.next = 0
	a.bools.next = 0
}

// Adopt makes x allocate from a: tensor.Like(x, ...) and everything
// derived from it draw from the arena until the next Reset. x itself
// stays where it was allocated. A nil a returns x to the heap path.
func (a *Arena) Adopt(x *Tensor) { x.arena = a }

// header returns the next header slot set to shape and data.
func (a *Arena) header(data []float64, shape []int) *Tensor {
	if a.nhdr == len(a.hdrs) {
		a.hdrs = append(a.hdrs, new(arenaTensor))
	}
	h := a.hdrs[a.nhdr]
	a.nhdr++
	if len(shape) <= len(h.dims) {
		h.t.Shape = h.dims[:copy(h.dims[:], shape)]
	} else {
		h.t.Shape = append([]int(nil), shape...)
	}
	h.t.Data = data
	h.t.arena = a
	return &h.t
}

// Like returns an uninitialised tensor of the given shape from src's
// arena, or from the heap when src has none. Step code allocates every
// activation and gradient through Like so that a training loop's arena
// serves the whole step.
func Like(src *Tensor, shape ...int) *Tensor {
	n := shapeVolume(shape)
	if a := src.arena; a != nil {
		d := a.f64.take(n)
		if poisonArena {
			for i := range d {
				d[i] = math.NaN()
			}
		}
		return a.header(d, shape)
	}
	return New(shape...)
}

// IntsLike returns an uninitialised int slice of length n from src's
// arena, or from the heap when src has none.
func IntsLike(src *Tensor, n int) []int {
	if a := src.arena; a != nil {
		d := a.ints.take(n)
		if poisonArena {
			for i := range d {
				d[i] = math.MinInt
			}
		}
		return d
	}
	return make([]int, n)
}

// BoolsLike returns an uninitialised bool slice of length n from src's
// arena, or from the heap when src has none.
func BoolsLike(src *Tensor, n int) []bool {
	if a := src.arena; a != nil {
		d := a.bools.take(n)
		if poisonArena {
			for i := range d {
				d[i] = true
			}
		}
		return d
	}
	return make([]bool, n)
}
