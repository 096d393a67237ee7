package transport

// End-to-end coverage for update compression on the wire: compressed
// federations reaching dense-grade accuracy at a fraction of the wire
// bytes, and coordinator crash/restart with a compressed session — the
// client-side error-feedback residual must roll back with the round
// captures so the resumed run stays bit-identical.

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/fl/faults"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/telemetry"
)

// runWireFederation runs a fresh deterministic federation with one
// RetryConfig per client and returns the final global. The coordinator
// is mutated by mut before serving (codec, checkpointing, metrics, ...).
func runWireFederation(t *testing.T, rounds int, mut func(*Coordinator), rcs []RetryConfig) []float64 {
	t.Helper()
	k := len(rcs)
	clients, initial := buildStatefulClients(t, k)
	coord := &Coordinator{NumClients: k, Rounds: rounds, Initial: initial}
	if mut != nil {
		mut(coord)
	}

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
	addr := <-addrCh

	clientErrs := make([]error, k)
	var cwg sync.WaitGroup
	for i, c := range clients {
		cwg.Add(1)
		go func(i int, c fl.Client) {
			defer cwg.Done()
			rc := rcs[i]
			if rc.MaxAttempts == 0 {
				rc.MaxAttempts = 1
			}
			clientErrs[i] = RunClientRetry(addr, c, rc)
		}(i, c)
	}
	cwg.Wait()
	wg.Wait()
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	return global
}

func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: global length %d vs %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: global[%d] = %v, want %v — runs are not bit-identical",
				name, i, got[i], want[i])
		}
	}
}

// TestCompressedFederationAccuracyAndBytes is the load-bearing check for
// the compression path: a top-k+int8 federation with error feedback must
// reach the same accuracy bar as the dense runs while shrinking the
// per-round wire traffic.
func TestCompressedFederationAccuracyAndBytes(t *testing.T) {
	const k, rounds = 2, 10

	denseReg := telemetry.NewRegistry()
	denseMet := NewMetrics(denseReg)
	runWireFederation(t, rounds, func(c *Coordinator) {
		c.Metrics = denseMet
	}, []RetryConfig{{}, {}})
	denseBytes := denseMet.RoundBytes.Value()

	reg := telemetry.NewRegistry()
	met := NewMetrics(reg)
	rc := RetryConfig{Compress: "topk8", TopKFrac: 0.25}
	global := runWireFederation(t, rounds, func(c *Coordinator) {
		c.Metrics = met
	}, []RetryConfig{rc, rc})

	_, test, err := datasets.SyntheticImages(datasets.ImageConfig{
		Classes: 3, Train: 60, Test: 60, C: 1, H: 6, W: 6,
		Signal: 0.5, Noise: 0.2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	eval := model.NewClassifier(rand.New(rand.NewSource(7)), model.VGG, test.In, test.NumClasses)
	if err := nn.SetFlatParams(eval.Params(), global); err != nil {
		t.Fatal(err)
	}
	if acc := fl.Evaluate(eval, test, 32); acc < 0.35 {
		t.Fatalf("compressed federation accuracy = %v, want ≥0.35", acc)
	}

	if met.CompressedUpdates.Value() != k*rounds {
		t.Fatalf("compressed updates = %d, want %d", met.CompressedUpdates.Value(), k*rounds)
	}
	compBytes := met.RoundBytes.Value()
	if denseBytes == 0 || compBytes == 0 {
		t.Fatalf("round-bytes gauge not recorded: dense %v, compressed %v", denseBytes, compBytes)
	}
	// The broadcast half of the round stays dense, so total round bytes
	// shrink by less than the update-only ratio — but must still shrink.
	if compBytes > 0.75*denseBytes {
		t.Fatalf("compressed round moved %v bytes vs %v dense — compression is not load-bearing",
			compBytes, denseBytes)
	}
}

// TestBinaryCompressedRestartResumesBitIdentical is the crash drill on
// the compressed wire path: the coordinator dies after round 2 and
// restarts from its durable snapshot; the clients rejoin, roll back one
// round — including their error-feedback residuals, which ride the same
// capture/rollback machinery — and the finished run must match an
// uninterrupted compressed run bit for bit. A residual that failed to
// roll back would poison every subsequent update.
func TestBinaryCompressedRestartResumesBitIdentical(t *testing.T) {
	const k, rounds, every = 2, 6, 2
	mkRC := func(i int) RetryConfig {
		return RetryConfig{
			Compress: "topk16", TopKFrac: 0.25,
			MaxAttempts: 50,
			BaseDelay:   5 * time.Millisecond,
			Rng:         rand.New(rand.NewSource(int64(900 + i))),
		}
	}

	// Uninterrupted compressed durable run: the reference result.
	baseMgr := &checkpoint.Manager{Path: filepath.Join(t.TempDir(), "base.ckpt")}
	want := runWireFederation(t, rounds, func(c *Coordinator) {
		c.Checkpoint = baseMgr
		c.CheckpointEvery = every
	}, []RetryConfig{mkRC(0), mkRC(1)})

	// Crashing run: kill after round 2, restart from the snapshot while
	// the clients are still out there retrying with their EF residuals.
	crashClients, initial := buildStatefulClients(t, k)
	mgr := &checkpoint.Manager{Path: filepath.Join(t.TempDir(), "state.ckpt")}
	first := &Coordinator{
		NumClients: k, Rounds: rounds, Initial: initial,
		Checkpoint: mgr, CheckpointEvery: every,
		AfterRound: faults.CrashAt(2),
	}
	addrCh := make(chan string, 1)
	var (
		firstErr error
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, firstErr = first.ListenAndRun("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	clientErrs := make([]error, k)
	var cwg sync.WaitGroup
	for i, c := range crashClients {
		cwg.Add(1)
		go func(i int, c fl.Client) {
			defer cwg.Done()
			clientErrs[i] = RunClientRetry(addr, c, mkRC(i))
		}(i, c)
	}
	wg.Wait() // coordinator process 1 dies
	if !errors.Is(firstErr, faults.ErrCrash) {
		t.Fatalf("first coordinator: got %v, want ErrCrash", firstErr)
	}

	snap, err := mgr.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap.State.NextRound != 2 {
		t.Fatalf("snapshot resumes at round %d, want 2", snap.State.NextRound)
	}
	reg := telemetry.NewRegistry()
	met := NewMetrics(reg)
	second := &Coordinator{
		NumClients: k, Rounds: rounds, Initial: initial,
		Checkpoint: mgr, CheckpointEvery: every,
		Restore: snap, Metrics: met,
	}
	var got []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		got, err = second.ListenAndRun(addr, nil)
		if err != nil {
			t.Error(err)
		}
	}()
	cwg.Wait()
	wg.Wait()
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if met.Rejoins.Value() != k {
		t.Fatalf("rejoins = %d, want %d", met.Rejoins.Value(), k)
	}
	sameBits(t, "compressed restart", got, want)
}
