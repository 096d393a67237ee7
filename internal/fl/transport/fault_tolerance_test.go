package transport

import (
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/faults"
	"github.com/cip-fl/cip/internal/fl/wire"
)

// echoClient returns the global parameters unchanged — a cheap stand-in
// for a training client in protocol-level tests.
type echoClient struct {
	id    int
	delay time.Duration
	slow  map[int]bool // rounds to delay; nil means never
}

func (c *echoClient) ID() int         { return c.id }
func (c *echoClient) NumSamples() int { return 10 }
func (c *echoClient) TrainLocal(round int, global []float64) (fl.Update, error) {
	if c.slow[round] {
		time.Sleep(c.delay)
	}
	p := make([]float64, len(global))
	copy(p, global)
	return fl.Update{Params: p, NumSamples: 10, TrainLoss: 1}, nil
}

// startCoordinator launches coord and returns its bound address plus a
// wait func yielding the final globals and error.
func startCoordinator(t *testing.T, coord *Coordinator) (string, func() ([]float64, error)) {
	t.Helper()
	addrCh := make(chan string, 1)
	var (
		global []float64
		srvErr error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		global, srvErr = coord.ListenAndRun("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	return <-addrCh, func() ([]float64, error) {
		wg.Wait()
		return global, srvErr
	}
}

// TestCoordinatorDropsStragglerAndContinues: a client missing the round
// deadline is dropped; the federation finishes over the survivors and the
// observer records the drop with a timeout reason.
func TestCoordinatorDropsStragglerAndContinues(t *testing.T) {
	rec := &fl.HistoryRecorder{}
	coord := &Coordinator{
		NumClients: 2, Rounds: 4, Initial: []float64{1, 2},
		MinQuorum: 1, RoundTimeout: 250 * time.Millisecond,
		Observers: []fl.RoundObserver{rec},
	}
	addr, wait := startCoordinator(t, coord)

	var cwg sync.WaitGroup
	clientErrs := make([]error, 2)
	clients := []fl.Client{
		&echoClient{id: 0},
		&echoClient{id: 1, delay: 2 * time.Second, slow: map[int]bool{1: true}},
	}
	for i, c := range clients {
		cwg.Add(1)
		go func(i int, c fl.Client) {
			defer cwg.Done()
			clientErrs[i] = RunClient(addr, c)
		}(i, c)
	}
	global, srvErr := wait()
	cwg.Wait()

	if srvErr != nil {
		t.Fatalf("coordinator should survive the straggler: %v", srvErr)
	}
	if len(global) != 2 {
		t.Fatalf("final global length %d, want 2", len(global))
	}
	if clientErrs[0] != nil {
		t.Fatalf("healthy client failed: %v", clientErrs[0])
	}
	if clientErrs[1] == nil {
		t.Fatal("dropped straggler should see a connection error")
	}
	if len(rec.Rounds) != 4 {
		t.Fatalf("observer saw %d rounds, want 4", len(rec.Rounds))
	}
	if len(rec.Rounds[0].TrainLosses) != 2 {
		t.Fatalf("round 0 aggregated %d updates, want 2", len(rec.Rounds[0].TrainLosses))
	}
	r1 := rec.Rounds[1]
	if len(r1.TrainLosses) != 1 || len(r1.Dropped) != 1 {
		t.Fatalf("round 1: %d updates, %d dropped; want 1 and 1", len(r1.TrainLosses), len(r1.Dropped))
	}
	if r1.Dropped[0].ClientID != 1 || r1.Dropped[0].Reason != fl.FailTimeout {
		t.Fatalf("round 1 dropped = %+v, want client 1 with reason timeout", r1.Dropped[0])
	}
	for _, r := range rec.Rounds[2:] {
		if len(r.TrainLosses) != 1 {
			t.Fatalf("round %d aggregated %d updates after drop, want 1", r.Round, len(r.TrainLosses))
		}
	}
}

// TestAcceptWindowStartsWithQuorum: the coordinator stops waiting for the
// full roster when the accept window closes, as long as quorum is met.
func TestAcceptWindowStartsWithQuorum(t *testing.T) {
	coord := &Coordinator{
		NumClients: 3, Rounds: 2, Initial: []float64{1},
		MinQuorum: 2, AcceptWindow: 400 * time.Millisecond,
	}
	addr, wait := startCoordinator(t, coord)

	var cwg sync.WaitGroup
	for i := 0; i < 2; i++ { // only 2 of 3 show up
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			if err := RunClient(addr, &echoClient{id: i}); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	global, srvErr := wait()
	cwg.Wait()
	if srvErr != nil {
		t.Fatalf("coordinator should start with 2 of 3 clients: %v", srvErr)
	}
	if len(global) != 1 {
		t.Fatalf("unexpected global %v", global)
	}
}

// TestAcceptWindowBelowQuorumErrors: too few clients by the window close
// must be an error, not a hang.
func TestAcceptWindowBelowQuorumErrors(t *testing.T) {
	coord := &Coordinator{
		NumClients: 2, Rounds: 1, Initial: []float64{1},
		MinQuorum: 2, AcceptWindow: 200 * time.Millisecond,
	}
	_, wait := startCoordinator(t, coord)
	if _, err := wait(); err == nil {
		t.Fatal("expected accept-window error with zero clients connected")
	}
}

// TestCoordinatorToleratesGarbageHello: in fault-tolerant mode a peer
// speaking the wrong protocol is discarded without sinking the federation.
func TestCoordinatorToleratesGarbageHello(t *testing.T) {
	coord := &Coordinator{
		NumClients: 2, Rounds: 2, Initial: []float64{1},
		MinQuorum: 1, AcceptWindow: 2 * time.Second,
	}
	addr, wait := startCoordinator(t, coord)

	garbage, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := garbage.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	garbage.Close()

	if err := RunClient(addr, &echoClient{id: 0}); err != nil {
		t.Fatalf("honest client: %v", err)
	}
	if _, err := wait(); err != nil {
		t.Fatalf("coordinator should tolerate the garbage hello: %v", err)
	}
}

// TestCoordinatorBoundsUpdateSize: an update larger than the configured
// byte budget must be rejected instead of allocated.
func TestCoordinatorBoundsUpdateSize(t *testing.T) {
	coord := &Coordinator{
		NumClients: 1, Rounds: 1, Initial: []float64{1, 2},
		MaxUpdateBytes: 2 << 10,
	}
	addr, wait := startCoordinator(t, coord)

	conn, br := dialRaw(t, addr, wire.Hello{ID: 0, NumSamples: 5})
	defer conn.Close()
	readRoundFrame(t, br)
	huge := fl.Update{Params: make([]float64, 1<<16), NumSamples: 5}
	frame, err := wire.AppendUpdateFrame(nil, huge, nil, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(frame) //nolint:errcheck // server may hang up mid-write
	if _, err := wait(); err == nil {
		t.Fatal("coordinator accepted an update past the byte bound")
	}
}

// TestRunClientRetryConnectsToLateServer: the client is launched before
// the coordinator exists and must back off and retry until it is up.
func TestRunClientRetryConnectsToLateServer(t *testing.T) {
	coord := &Coordinator{NumClients: 1, Rounds: 2, Initial: []float64{1}}

	addrCh := make(chan string, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // reserve an address, then start the server late
	addrCh <- addr

	var (
		srvErr error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(300 * time.Millisecond)
		_, srvErr = coord.ListenAndRun(addr, nil)
	}()

	err = RunClientRetry(<-addrCh, &echoClient{id: 0}, RetryConfig{
		MaxAttempts: 20,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    100 * time.Millisecond,
		Rng:         rand.New(rand.NewSource(4)),
	})
	if err != nil {
		t.Fatalf("retrying client should reach the late server: %v", err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatal(srvErr)
	}
}

// TestRunClientRetryGivesUp: with no server at all, the retry loop must
// return the dial error after MaxAttempts rather than spin forever.
func TestRunClientRetryGivesUp(t *testing.T) {
	start := time.Now()
	err := RunClientRetry("127.0.0.1:1", &echoClient{id: 0}, RetryConfig{
		MaxAttempts: 3,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("expected dial failure")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("retry loop took implausibly long")
	}
}

// TestFlakyConnDropIsToleratedByQuorum: a client whose connection dies
// mid-federation (byte-budget fault injection) is dropped; the rest finish.
func TestFlakyConnDropIsToleratedByQuorum(t *testing.T) {
	// Each round moves 8 bytes per parameter both ways, so the byte
	// budget below reliably expires mid-federation (after the handshake,
	// within the first rounds of 6).
	initial := make([]float64, 64)
	rng := rand.New(rand.NewSource(8))
	for i := range initial {
		initial[i] = rng.NormFloat64()
	}
	rec := &fl.HistoryRecorder{}
	coord := &Coordinator{
		NumClients: 2, Rounds: 6, Initial: initial,
		MinQuorum: 1, RoundTimeout: 2 * time.Second,
		Observers: []fl.RoundObserver{rec},
	}
	addr, wait := startCoordinator(t, coord)

	var cwg sync.WaitGroup
	clientErrs := make([]error, 2)
	cwg.Add(2)
	go func() {
		defer cwg.Done()
		clientErrs[0] = RunClient(addr, &echoClient{id: 0})
	}()
	go func() {
		defer cwg.Done()
		// Enough budget for hello plus a round or two, then the conn dies.
		clientErrs[1] = RunClientRetry(addr, &echoClient{id: 1}, RetryConfig{
			MaxAttempts: 1,
			Dial:        faults.FlakyDialer(2000),
		})
	}()
	_, srvErr := wait()
	cwg.Wait()

	if srvErr != nil {
		t.Fatalf("coordinator should survive the dropped connection: %v", srvErr)
	}
	if clientErrs[0] != nil {
		t.Fatalf("healthy client failed: %v", clientErrs[0])
	}
	if clientErrs[1] == nil {
		t.Fatal("budgeted client should report its dropped connection")
	}
	dropped := false
	for _, r := range rec.Rounds {
		for _, f := range r.Dropped {
			if f.ClientID == 1 {
				dropped = true
			}
		}
	}
	if !dropped {
		t.Fatal("observer never saw client 1 dropped")
	}
}
