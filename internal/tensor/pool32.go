package tensor

import "sync"

// The float32 scratch pool mirrors pool.go exactly — same size classes
// (poolClass), same per-class retention bounds (classCap), same
// mutex-guarded GC-immune LIFO rationale, same caller invariants
// (DESIGN.md §9) — over float32 storage. A class's capacity is 2^class
// ELEMENTS, so the f32 pool's resident bytes are half the f64 pool's at
// the same fill. The shared pool counters (PoolStats, tensor_pool_*
// metrics) account Gets/misses/Puts from both pools.

// classList32 is one size class's float32 freelist.
type classList32 struct {
	mu   sync.Mutex
	free []*Tensor32
}

var scratchPools32 [maxPoolClass + 1]classList32

// GetTensor32 returns a float32 tensor of the given shape backed by pooled
// storage. Contents are uninitialized. Pair every GetTensor32 with exactly
// one PutTensor32 once the buffer is dead.
func GetTensor32(shape ...int) *Tensor32 {
	n := shapeVolume(shape)
	c := poolClass(n)
	poolGets.inc()
	if c < 0 {
		poolMisses.inc()
		return &Tensor32{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
	}
	p := &scratchPools32[c]
	p.mu.Lock()
	var t *Tensor32
	if last := len(p.free) - 1; last >= 0 {
		t = p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
	}
	p.mu.Unlock()
	if t == nil {
		poolMisses.inc()
		t = &Tensor32{Data: make([]float32, 1<<c), pooled: true}
	}
	t.Data = t.Data[:cap(t.Data)][:n]
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// PutTensor32 returns t's storage to the pool. t must not be used
// afterwards. Like PutTensor, it takes back only tensors that GetTensor32
// handed out from a size class and ignores all others.
func PutTensor32(t *Tensor32) {
	if t == nil || !t.pooled {
		return
	}
	c := poolClass(cap(t.Data))
	p := &scratchPools32[c]
	p.mu.Lock()
	if len(p.free) < classCap(c) {
		p.free = append(p.free, t)
		p.mu.Unlock()
		poolPuts.inc()
		return
	}
	p.mu.Unlock()
}
