package transport

import (
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cip-fl/cip/internal/fl"
)

// vecClient produces a deterministic update from (id, round, global), so
// any two federations over the same roster must agree bit for bit.
type vecClient struct {
	id      int
	samples int
	rounds  int32 // TrainLocal invocations, for sampling assertions
}

func (c *vecClient) ID() int         { return c.id }
func (c *vecClient) NumSamples() int { return c.samples }
func (c *vecClient) TrainLocal(round int, global []float64) (fl.Update, error) {
	atomic.AddInt32(&c.rounds, 1)
	p := make([]float64, len(global))
	for i := range p {
		p[i] = global[i] + float64(c.id+1)*0.01*float64(i+1) + float64(round)*0.001
	}
	return fl.Update{Params: p, NumSamples: c.samples, TrainLoss: 1}, nil
}

// runVecFederation runs one federation over n fresh vecClients and
// returns the final global plus the clients (for participation counts).
func runVecFederation(t *testing.T, coord *Coordinator, n int) ([]float64, []*vecClient) {
	t.Helper()
	addr, wait := startCoordinator(t, coord)
	clients := make([]*vecClient, n)
	var cwg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		clients[i] = &vecClient{id: i, samples: 5 + 3*i}
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			errs[i] = RunClient(addr, clients[i])
		}(i)
	}
	global, srvErr := wait()
	cwg.Wait()
	if srvErr != nil {
		t.Fatalf("coordinator: %v", srvErr)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	return global, clients
}

// TestStreamingMatchesBufferedBitExact: the streaming fold must produce
// bit-identical globals to the legacy buffered path for every window
// size, including w=1 (fully serialized) and w≥roster (fully
// concurrent), regardless of client arrival order.
func TestStreamingMatchesBufferedBitExact(t *testing.T) {
	const n = 5
	mk := func() *Coordinator {
		return &Coordinator{
			NumClients: n, Rounds: 3,
			Initial: []float64{0.5, -1.25, 3, 0.0625},
		}
	}
	base := mk()
	base.BufferRounds = true
	want, _ := runVecFederation(t, base, n)

	for _, w := range []int{1, 2, 64} {
		coord := mk()
		coord.MaxInflightUpdates = w
		got, _ := runVecFederation(t, coord, n)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("window %d coord %d: streaming %v != buffered %v", w, i, got[i], want[i])
			}
		}
	}
}

// failClient fails its local training from round failAt on; RunClient
// then drops its connection mid-exchange.
type failClient struct {
	vecClient
	failAt int
}

func (c *failClient) TrainLocal(round int, global []float64) (fl.Update, error) {
	if round >= c.failAt {
		return fl.Update{}, errors.New("injected training failure")
	}
	return c.vecClient.TrainLocal(round, global)
}

// TestFailStopAbortDrainsWindow: in fail-stop mode (MinQuorum 0) a member
// lost mid-round aborts the federation with that member's error, even
// with other exchanges admitted to a narrow window, and the abort leaves
// no goroutine behind — window workers, exchanges and clients all end.
func TestFailStopAbortDrainsWindow(t *testing.T) {
	expectNoGoroutineLeak(t)
	const n = 5
	addr, wait := startCoordinator(t, &Coordinator{
		NumClients: n, Rounds: 4, Initial: []float64{1, -2, 3},
		MaxInflightUpdates: 2,
	})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		var c fl.Client = &vecClient{id: i, samples: 1 + i}
		if i == 1 {
			c = &failClient{vecClient: vecClient{id: i, samples: 2}, failAt: 2}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunClient(addr, c) //nolint:errcheck — the coordinator aborts under them
		}()
	}
	_, err := wait()
	wg.Wait()
	if err == nil || !strings.Contains(err.Error(), "client 1") {
		t.Fatalf("coordinator error %v, want the abort naming client 1", err)
	}
}

// TestSampledCohortsAreDeterministic: SampleFraction selects exactly
// round(f·roster) clients per round (never below quorum), and the
// per-client participation schedule is a pure function of (seed, round):
// two federations with the same seed pick identical cohorts.
func TestSampledCohortsAreDeterministic(t *testing.T) {
	const n, rounds = 4, 6
	run := func(seed int64) []int32 {
		coord := &Coordinator{
			NumClients: n, Rounds: rounds, Initial: []float64{1, 2},
			MinQuorum: 2, SampleFraction: 0.5, SampleSeed: seed,
		}
		_, clients := runVecFederation(t, coord, n)
		counts := make([]int32, n)
		var total int32
		for i, c := range clients {
			counts[i] = atomic.LoadInt32(&c.rounds)
			total += counts[i]
		}
		if total != rounds*2 {
			t.Fatalf("seed %d: %d total exchanges, want %d (2 per round)", seed, total, rounds*2)
		}
		return counts
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedules: client %d trained %d vs %d rounds", i, a[i], b[i])
		}
	}
	// A weighted sampler must not be degenerate: over 6 rounds of 2-of-4,
	// no single client can own every slot.
	for i, c := range a {
		if c == rounds {
			t.Fatalf("client %d sampled every round — sampler looks degenerate: %v", i, a)
		}
	}
}

// TestRejoinJoinsMidFederation: with AcceptRejoins, a client that dials
// after the federation has started is parked by the accept loop and
// admitted at the next round boundary, then participates normally.
func TestRejoinJoinsMidFederation(t *testing.T) {
	const rounds = 5
	late := &vecClient{id: 2, samples: 9}
	lateErr := make(chan error, 1)
	var launched bool
	var addr string
	coord := &Coordinator{
		NumClients: 2, Rounds: rounds, Initial: []float64{1, -2, 3},
		MinQuorum: 2, AcceptRejoins: true,
	}
	coord.AfterRound = func(round int) error {
		if round == 1 && !launched {
			launched = true
			go func() { lateErr <- RunClient(addr, late) }()
			// Give the hello/park handshake time to land so the round-2
			// boundary admits the newcomer.
			time.Sleep(500 * time.Millisecond)
		}
		return nil
	}

	var wait func() ([]float64, error)
	addr, wait = startCoordinator(t, coord)
	var cwg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			errs[i] = RunClient(addr, &vecClient{id: i, samples: 10})
		}(i)
	}
	_, srvErr := wait()
	cwg.Wait()
	if srvErr != nil {
		t.Fatalf("coordinator: %v", srvErr)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("original client %d: %v", i, err)
		}
	}
	if err := <-lateErr; err != nil {
		t.Fatalf("late client: %v", err)
	}
	got := atomic.LoadInt32(&late.rounds)
	if got == 0 || got > rounds-2 {
		t.Fatalf("late client trained %d rounds, want 1..%d", got, rounds-2)
	}
}
