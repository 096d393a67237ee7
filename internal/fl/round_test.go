package fl

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

type testMember int

func (m testMember) ID() int         { return int(m) }
func (m testMember) NumSamples() int { return 1 }

func testRoster(n int) []testMember {
	r := make([]testMember, n)
	for i := range r {
		r[i] = testMember(i)
	}
	return r
}

// barrier releases its waiters once n of them have arrived, or fails them
// after a timeout (so a collection loop that admits fewer than n members at
// once shows up as an error instead of a hang).
type barrier struct {
	mu      sync.Mutex
	arrived int
	n       int
	all     chan struct{}
}

func newBarrier(n int) *barrier { return &barrier{n: n, all: make(chan struct{})} }

func (b *barrier) arrive() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.arrived++; b.arrived == b.n {
		close(b.all)
	}
}

func (b *barrier) wait() error {
	select {
	case <-b.all:
		return nil
	case <-time.After(5 * time.Second):
		b.mu.Lock()
		defer b.mu.Unlock()
		return fmt.Errorf("only %d of %d members reached the barrier", b.arrived, b.n)
	}
}

// TestCollectAdmission pins the collection window's admission rules: a
// streaming round keeps at most Window members admitted, a round that keeps
// its updates admits the whole cohort at once, and with Workers below the
// cohort a slow member at the head of the roster does not hold back the
// members behind it.
func TestCollectAdmission(t *testing.T) {
	const n = 6
	update := func(m testMember) Contribution {
		return Contribution{Update: Update{Params: []float64{float64(m)}, NumSamples: 1}}
	}
	cases := []struct {
		name            string
		workers, window int
		buffer          bool
		// arrivals is the barrier's size: produce returns only once that
		// many members are producing or done, so the round fails unless the
		// window admits them together.
		arrivals int
		produce  func(b *barrier, m testMember) (Contribution, error)
		// maxPeak bounds the members admitted but unconsumed at once.
		maxPeak int
	}{
		{
			name: "streaming window", window: 2,
			produce: func(_ *barrier, m testMember) (Contribution, error) {
				return update(m), nil
			},
			maxPeak: 2,
		},
		{
			name: "kept updates admit all", window: 2, buffer: true, arrivals: n,
			produce: func(b *barrier, m testMember) (Contribution, error) {
				b.arrive()
				return update(m), b.wait()
			},
			maxPeak: n,
		},
		{
			name: "slow head", workers: 2, arrivals: n - 1,
			produce: func(b *barrier, m testMember) (Contribution, error) {
				if m == 0 {
					return update(m), b.wait()
				}
				b.arrive()
				return update(m), nil
			},
			maxPeak: n,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newBarrier(tc.arrivals)
			var mu sync.Mutex
			peak := 0
			core := RoundCore[testMember]{
				FailStop: true, Workers: tc.workers, Window: tc.window, Buffer: tc.buffer,
				Produce: func(_ int, m testMember, _ []float64) (Contribution, error) {
					return tc.produce(b, m)
				},
				Inflight: func(k int) {
					mu.Lock()
					peak = max(peak, k)
					mu.Unlock()
				},
			}
			out, err := core.Run(0, []float64{0}, testRoster(n))
			if err != nil {
				t.Fatal(err)
			}
			if want := 2.5; out.Global[0] != want {
				t.Fatalf("global %v, want %v", out.Global[0], want)
			}
			if peak > tc.maxPeak {
				t.Fatalf("%d members admitted at once, want at most %d", peak, tc.maxPeak)
			}
		})
	}
}
