package transport

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/faults"
	"github.com/cip-fl/cip/internal/fl/robust"
)

// expectNoGoroutineLeak records the goroutine count now and, at test
// teardown, fails the test if more goroutines are still running after a
// short settle period.
func expectNoGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<16)
			t.Errorf("%d goroutines still running after teardown, %d before:\n%s",
				n, before, buf[:runtime.Stack(buf, true)])
		}
	})
}

const (
	parityClients = 4
	parityBad     = 3 // the sign-flip client in reputation cells
	parityRounds  = 8
	parityDim     = 32
)

// parityClient steps every coordinate by a near-common amount, so honest
// updates cluster and a sign-flipped one stands out; sample counts differ
// per client, so cohort sampling is visibly weighted.
type parityClient struct{ id int }

func (c *parityClient) ID() int         { return c.id }
func (c *parityClient) NumSamples() int { return 5 + 3*c.id }
func (c *parityClient) TrainLocal(round int, global []float64) (fl.Update, error) {
	p := make([]float64, len(global))
	for i := range p {
		p[i] = global[i] + 0.1 + 0.002*float64(c.id) + 0.0001*float64(i*(round+1))
	}
	return fl.Update{Params: p, NumSamples: c.NumSamples(), TrainLoss: float64(c.id + round)}, nil
}

// parityRoster builds identical deterministic rosters; with attack set,
// client parityBad flips its update every round.
func parityRoster(attack bool) []fl.Client {
	clients := make([]fl.Client, parityClients)
	for i := range clients {
		var c fl.Client = &parityClient{id: i}
		if attack && i == parityBad {
			c = faults.NewSignFlip(c, 3, nil)
		}
		clients[i] = c
	}
	return clients
}

// parityView is what the server saw: every round's pre-round global and
// surviving updates, and the dropped clients, through the observer hook.
func parityView(h *fl.HistoryRecorder, final []float64) string {
	var b []byte
	for _, r := range h.Rounds {
		b = fmt.Appendf(b, "round %d global %x\n", r.Round, bits(r.Global))
		for i, p := range r.LocalParams {
			b = fmt.Appendf(b, "  update %d loss %x params %x\n", i, math.Float64bits(r.TrainLosses[i]), bits(p))
		}
		for _, f := range r.Dropped {
			b = fmt.Appendf(b, "  dropped client %d round %d %s\n", f.ClientID, f.Round, f.Reason)
		}
	}
	return string(fmt.Appendf(b, "final %x\n", bits(final)))
}

func bits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestInProcessAndTCPRoundsAgree runs the same flat federation through
// fl.Server and through a loopback Coordinator and requires the server's
// per-round view — pre-round globals, every surviving update, the dropped
// clients and their reasons — and the final global to be bit-identical,
// over {mean, median, trimmed 0.25, clipped} × {all clients, half sampled}
// × {dense, topk8} × {no reputation, reputation with a sign-flip client}.
func TestInProcessAndTCPRoundsAgree(t *testing.T) {
	expectNoGoroutineLeak(t)
	rules := []struct {
		name string
		rule robust.Aggregator
	}{
		{"mean", nil},
		{"median", robust.Median{}},
		{"trimmed", robust.TrimmedMean{Frac: 0.25}},
		{"clipped", robust.ClippedMean{MaxNorm: 0.5}},
	}
	for _, rl := range rules {
		for _, frac := range []float64{0, 0.5} {
			for _, codec := range []string{"", "topk8"} {
				for _, withRep := range []bool{false, true} {
					name := fmt.Sprintf("%s/frac=%g/codec=%q/reputation=%v", rl.name, frac, codec, withRep)
					t.Run(name, func(t *testing.T) {
						newRep := func() *robust.Reputation {
							if !withRep {
								return nil
							}
							return robust.NewReputation(robust.ReputationConfig{})
						}
						initial := make([]float64, parityDim)

						inRec := &fl.HistoryRecorder{KeepParams: true}
						inRep := newRep()
						srv := fl.NewServer(initial, parityRoster(withRep)...)
						srv.Observers = []fl.RoundObserver{inRec}
						srv.Policy = &fl.RoundPolicy{
							MinQuorum: 2, Robust: rl.rule, Reputation: inRep,
							SampleFraction: frac, SampleSeed: 11,
						}
						if codec != "" {
							mode, err := compress.ParseMode(codec)
							if err != nil {
								t.Fatal(err)
							}
							srv.Policy.Compress = compress.NewBank(compress.Config{Mode: mode})
						}
						if err := srv.Run(parityRounds); err != nil {
							t.Fatalf("in-process: %v", err)
						}

						tcpRec := &fl.HistoryRecorder{KeepParams: true}
						tcpRep := newRep()
						coord := &Coordinator{
							NumClients: parityClients, Rounds: parityRounds, Initial: initial,
							MinQuorum: 2, Robust: rl.rule, Reputation: tcpRep,
							SampleFraction: frac, SampleSeed: 11,
							Observers: []fl.RoundObserver{tcpRec},
						}
						addr, wait := startCoordinator(t, coord)
						var wg sync.WaitGroup
						errs := make([]error, parityClients)
						for i, c := range parityRoster(withRep) {
							wg.Add(1)
							go func(i int, c fl.Client) {
								defer wg.Done()
								errs[i] = RunClientRetry(addr, c, RetryConfig{MaxAttempts: 1, Compress: codec})
							}(i, c)
						}
						global, err := wait()
						wg.Wait()
						if err != nil {
							t.Fatalf("coordinator: %v", err)
						}
						for i, err := range errs {
							if err != nil {
								t.Fatalf("client %d: %v", i, err)
							}
						}

						want, got := parityView(inRec, srv.Global()), parityView(tcpRec, global)
						if want != got {
							t.Fatalf("in-process and TCP server views differ\nin-process:\n%s\nTCP:\n%s", want, got)
						}
						// A robust rule over the full roster must convict the
						// attacker; the mean absorbs part of its pull, and a
						// sampled cohort of two carries too little evidence.
						if withRep && rl.rule != nil && frac == 0 && !inRep.Blocked(parityBad) {
							t.Fatalf("sign-flip client %d was never quarantined (score %.3f)",
								parityBad, inRep.ScoreOf(parityBad))
						}
					})
				}
			}
		}
	}
}

// poisonClient returns its global with one coordinate replaced by a
// non-finite value.
type poisonClient struct {
	id    int
	value float64
}

func (c *poisonClient) ID() int         { return c.id }
func (c *poisonClient) NumSamples() int { return 1 }
func (c *poisonClient) TrainLocal(_ int, global []float64) (fl.Update, error) {
	p := append([]float64(nil), global...)
	p[0] = c.value
	return fl.Update{Params: p, NumSamples: 1}, nil
}

// TestFailStopRejectsNonFiniteUpdates: with no policy (in-process) and
// MinQuorum 0 (TCP) both engines are fail-stop, and both validate every
// update, so a NaN or Inf parameter aborts the round with an error instead
// of entering the global.
func TestFailStopRejectsNonFiniteUpdates(t *testing.T) {
	for _, tc := range []struct {
		name  string
		value float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
	} {
		want := strings.TrimLeft(tc.name, "+-")
		roster := func() []fl.Client {
			return []fl.Client{&vecClient{id: 0, samples: 1}, &poisonClient{id: 1, value: tc.value}}
		}
		t.Run(tc.name+"/in-process", func(t *testing.T) {
			srv := fl.NewServer([]float64{1, 2}, roster()...)
			if err := srv.RunRound(0); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("round error %v, want a %s rejection (global %v)", err, want, srv.Global())
			}
			if g := srv.Global(); g[0] != 1 || g[1] != 2 {
				t.Fatalf("failed round moved the global to %v", g)
			}
		})
		t.Run(tc.name+"/tcp", func(t *testing.T) {
			addr, wait := startCoordinator(t, &Coordinator{NumClients: 2, Rounds: 1, Initial: []float64{1, 2}})
			var wg sync.WaitGroup
			for _, c := range roster() {
				wg.Add(1)
				go func(c fl.Client) {
					defer wg.Done()
					RunClient(addr, c) //nolint:errcheck — the coordinator aborts under them
				}(c)
			}
			global, err := wait()
			wg.Wait()
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("coordinator error %v, want a %s rejection (global %v)", err, want, global)
			}
		})
	}
}
