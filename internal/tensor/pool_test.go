package tensor

import (
	"math/rand"
	"sync"
	"testing"
)

func TestPoolClassSizing(t *testing.T) {
	cases := []struct{ n, class int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1024, 10}, {1025, 11},
		{1 << maxPoolClass, maxPoolClass},
		{1<<maxPoolClass + 1, -1},
	}
	for _, c := range cases {
		if got := poolClass(c.n); got != c.class {
			t.Errorf("poolClass(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestGetPutReusesStorageLIFO(t *testing.T) {
	a := GetTensor(33, 7)
	data := &a.Data[0]
	PutTensor(a)
	b := GetTensor(7, 33) // same size class, different shape
	if &b.Data[0] != data {
		t.Fatal("pooled storage was not reused LIFO")
	}
	if b.Shape[0] != 7 || b.Shape[1] != 33 || len(b.Data) != 231 {
		t.Fatalf("reused tensor has shape %v, len %d; want [7 33], 231", b.Shape, len(b.Data))
	}
	PutTensor(b)
}

func TestPutTensorRespectsClassCap(t *testing.T) {
	const n = 64 // class 6
	c := poolClass(n)
	// Drain the class so the test owns its state.
	var drained []*Tensor
	for {
		p := &scratchPools[c]
		p.mu.Lock()
		empty := len(p.free) == 0
		p.mu.Unlock()
		if empty {
			break
		}
		drained = append(drained, GetTensor(n))
	}
	// The class is empty, so each GetTensor mints a fresh pooled buffer.
	held := make([]*Tensor, 0, classCap(c)+5)
	for i := 0; i < classCap(c)+5; i++ {
		held = append(held, GetTensor(n))
	}
	for _, h := range held {
		PutTensor(h)
	}
	p := &scratchPools[c]
	p.mu.Lock()
	got := len(p.free)
	p.mu.Unlock()
	if got != classCap(c) {
		t.Fatalf("class %d retains %d buffers, want cap %d", c, got, classCap(c))
	}
	for _, d := range drained {
		PutTensor(d)
	}
}

func TestGetTensorOverflowFallsThrough(t *testing.T) {
	n := 1<<maxPoolClass + 1
	x := GetTensor(n)
	if len(x.Data) != n || x.Shape[0] != n {
		t.Fatalf("overflow tensor has len %d shape %v", len(x.Data), x.Shape)
	}
	PutTensor(x) // must be a no-op, not a pool entry with a foreign capacity
	y := GetTensor(16)
	if cap(y.Data) != 16 {
		t.Fatalf("pool handed out a buffer with capacity %d from class 4", cap(y.Data))
	}
	PutTensor(y)
}

// TestPutTensorIgnoresForeignTensors holds that the pool takes back only
// what it handed out: a heap tensor with a power-of-two capacity, a
// Reshape view of a pooled tensor and an arena tensor all stay with their
// owners, at both precisions.
func TestPutTensorIgnoresForeignTensors(t *testing.T) {
	const n = 4096 // class 12
	c := poolClass(n)
	idle := func() (int, int) {
		p, p32 := &scratchPools[c], &scratchPools32[c]
		p.mu.Lock()
		p32.mu.Lock()
		defer p.mu.Unlock()
		defer p32.mu.Unlock()
		return len(p.free), len(p32.free)
	}
	pooled := GetTensor(n)
	before, before32 := idle()

	owned := New(n)
	PutTensor(owned)
	PutTensor(pooled.Reshape(64, 64))
	var a Arena
	a.Adopt(owned)
	PutTensor(Like(owned, n))
	PutTensor32(New32(n))
	if got, got32 := idle(); got != before || got32 != before32 {
		t.Fatalf("foreign tensors entered the pool: class %d idle %d→%d (f64), %d→%d (f32)",
			c, before, got, before32, got32)
	}
	PutTensor(pooled)
	if got, _ := idle(); got != before+1 {
		t.Fatalf("a pooled tensor was not taken back: idle %d, want %d", got, before+1)
	}
}

// TestPoolConcurrentGetPut exercises the freelist locking under -race.
func TestPoolConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				x := GetTensor(1+rng.Intn(64), 1+rng.Intn(64))
				x.Data[0] = float64(i)
				PutTensor(x)
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestHeadGEMMPoolsNoOversizedPanel holds that a GEMM sizes its packed-B
// panel to the product. The dual-channel TinyVGG head at batch 16,
// [16,560]·[20,560]ᵀ, needs no pooled buffer larger than its A operand;
// a panel sized for the largest possible block (kcBlock × ncBlock) would
// leave an idle class-18 buffer behind, at either precision.
func TestHeadGEMMPoolsNoOversizedPanel(t *testing.T) {
	const m, k, n = 16, 560, 20
	rng := rand.New(rand.NewSource(1))
	a, b, dst := New(m, k), New(n, k), New(m, n)
	a.RandNormal(rng, 0, 1)
	b.RandNormal(rng, 0, 1)
	bias := make([]float64, n)
	need := poolClass(m * k)
	defer SetPrecision(F64)
	for _, p := range []Precision{F64, F32} {
		SetPrecision(p)
		// Take the idle buffers above need out of both pools, so that
		// whatever the product leaves there is its own.
		var held64 [maxPoolClass + 1][]*Tensor
		var held32 [maxPoolClass + 1][]*Tensor32
		for c := need + 1; c <= maxPoolClass; c++ {
			held64[c], scratchPools[c].free = scratchPools[c].free, nil
			held32[c], scratchPools32[c].free = scratchPools32[c].free, nil
		}
		MatMulTransBBiasInto(dst, a, b, bias)
		for c := need + 1; c <= maxPoolClass; c++ {
			if got := len(scratchPools[c].free) + len(scratchPools32[c].free); got != 0 {
				t.Errorf("%v: a head-sized GEMM left %d idle buffer(s) in class %d; it needs at most class %d",
					p, got, c, need)
			}
			scratchPools[c].free = append(scratchPools[c].free, held64[c]...)
			scratchPools32[c].free = append(scratchPools32[c].free, held32[c]...)
		}
	}
}
