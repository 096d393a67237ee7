package tensor

import "testing"

func TestArenaReusesSlotsAfterReset(t *testing.T) {
	var a Arena
	x := New(4, 6)
	a.Adopt(x)
	h := Like(x, 4, 6)
	v := h.Reshape(24)
	g := Like(v, 2, 3) // a view carries the arena
	first, second := &h.Data[0], &g.Data[0]

	a.Reset()
	h = Like(x, 3, 6) // smaller: slot 0 is reused, not regrown
	g = Like(h, 2, 3)
	if &h.Data[0] != first || &g.Data[0] != second {
		t.Fatal("allocations after Reset did not reuse their slots")
	}
	if len(h.Data) != 18 || h.Shape[0] != 3 || h.Shape[1] != 6 {
		t.Fatalf("reused slot has shape %v, len %d; want [3 6], 18", h.Shape, len(h.Data))
	}

	heap := Like(New(2), 5)
	if heap.arena != nil || len(heap.Data) != 5 {
		t.Fatal("Like of a tensor without an arena did not allocate on the heap")
	}
}

func TestGetArenaReusesPutArena(t *testing.T) {
	a := GetArena()
	b := GetArena()
	if a == b {
		t.Fatal("two training calls running at once share an arena")
	}
	PutArena(b)
	PutArena(a)
	if got := GetArena(); got != a {
		t.Fatal("GetArena did not reuse the last arena given back")
	}
	if got := GetArena(); got != b {
		t.Fatal("GetArena did not reuse the other arena given back")
	}
	PutArena(b)
	PutArena(a)
}
