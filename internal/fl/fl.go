// Package fl implements the federated-learning substrate the paper trains
// on: FedAvg clients and server, communication rounds, and the
// malicious-server observation and alteration hooks that the internal
// membership inference attacks of Nasr et al. (S&P'19) require.
//
// The design keeps attack logic out of the engine: a malicious server is
// modeled as (a) a RoundObserver that receives every client's local update
// each round (the passive attack's vantage point) and (b) an AlterFunc that
// may rewrite the model a victim client receives (the active attack's
// gradient-ascent injection point).
package fl

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// Update is what a client returns from one round of local training.
//
// The canonical shape is dense: Params holds the full post-training
// parameter vector and Indices/DenseLen/IsDelta are zero. The binary wire
// path additionally produces compressed shapes — sparse (Indices non-nil:
// Params holds only the coordinates named by Indices) and/or delta
// (IsDelta: values are offsets from the round's broadcast global rather
// than raw parameters). Compressed updates exist only between decode and
// Densify; Aggregate and the robust folds accept dense raw updates
// exclusively and reject anything else with an explicit error.
type Update struct {
	// ClientID identifies the producing client (filled in by the server).
	ClientID int
	// Params is the client's post-training flat parameter vector — or,
	// for a sparse update, the values of the coordinates in Indices.
	Params []float64
	// NumSamples weights this client in the FedAvg aggregate.
	NumSamples int
	// TrainLoss is the client's mean local training loss this round;
	// Fig. 7's EMD heterogeneity measure is computed over these.
	TrainLoss float64
	// Indices, when non-nil, marks the update sparse: Params[j] is the
	// value at dense coordinate Indices[j]. Indices must be strictly
	// ascending and in [0, DenseLen).
	Indices []int
	// DenseLen is the dense vector length a sparse update expands to.
	DenseLen int
	// IsDelta marks Params as offsets from the broadcast global
	// parameters instead of raw post-training values.
	IsDelta bool
}

// Sparse reports whether the update is in a compressed (sparse or delta)
// shape that must be densified before aggregation.
func (u Update) Sparse() bool { return u.Indices != nil || u.IsDelta }

// Client is one federated-learning participant.
type Client interface {
	// ID returns the client's stable index.
	ID() int
	// NumSamples returns the local training-set size.
	NumSamples() int
	// TrainLocal loads the global parameters, runs the client's local
	// training for the round, and returns the resulting update.
	TrainLocal(round int, global []float64) (Update, error)
}

// RoundObserver receives the state a (potentially malicious) server can see
// every round: the pre-round global parameters and each client's update.
type RoundObserver interface {
	ObserveRound(round int, global []float64, updates []Update)
}

// AlterFunc lets a malicious server rewrite the parameters sent to one
// client. Returning nil keeps the genuine global parameters.
type AlterFunc func(round int, clientID int, global []float64) []float64

// Server coordinates FedAvg over a set of clients. It is the in-process
// adapter of the round core (RoundCore): a member produces its update by
// TrainLocal on the parameters the core sends it.
type Server struct {
	Clients   []Client
	Observers []RoundObserver
	// Alter, when non-nil, may substitute the parameters each client
	// receives (malicious-server active attacks).
	Alter AlterFunc
	// Policy, when non-nil, enables fault-tolerant rounds: failing or
	// invalid clients are dropped and the round aggregates over the
	// surviving quorum; its SampleFraction and SampleSeed sample a cohort
	// per round. Nil keeps fail-stop semantics: every client trains, and
	// the earliest failure in roster order aborts the round.
	Policy *RoundPolicy
	// Metrics, when non-nil, receives per-round telemetry (round
	// duration, participating/dropped clients, validation rejections).
	Metrics *Metrics
	// Workers bounds how many clients train concurrently within one round
	// (each client owns its model, optimizer, and RNG, so local training is
	// an independent map over participants). 0 means GOMAXPROCS. Results
	// are bit-identical for every worker count: parameters are altered in
	// a serial pre-pass, updates are taken in roster order, and observers
	// and aggregation run serially afterwards.
	Workers int

	global []float64
	// core runs every round. It pools the aggregation buffers (safe
	// because TrainLocal contractually copies the broadcast parameters and
	// observers receive a fresh copy) and holds the cumulative per-client
	// failure counts, part of the durable state (ServerState).
	core RoundCore[Client]
	// round is the next round index to run; Run loops it up to its total,
	// so a server restored from a checkpoint continues where it left off.
	round int
}

// NewServer creates a server with the given initial global parameters.
func NewServer(initial []float64, clients ...Client) *Server {
	g := make([]float64, len(initial))
	copy(g, initial)
	return &Server{Clients: clients, global: g}
}

// Global returns a copy of the current global parameter vector.
func (s *Server) Global() []float64 {
	out := make([]float64, len(s.global))
	copy(out, s.global)
	return out
}

// RunRound executes one communication round: broadcast, local training on
// the (possibly sampled) clients, then aggregation.
func (s *Server) RunRound(round int) error {
	if len(s.Clients) == 0 {
		return errors.New("fl: server has no clients")
	}
	start := time.Now()
	var busy atomic.Int64
	c := &s.core
	c.Policy, c.FailStop = s.Policy, s.Policy == nil
	// The whole cohort is admitted (Window 0): a free worker takes the
	// next client instead of waiting on a slow one at the roster's head.
	c.Observers, c.Alter, c.Metrics, c.Workers = s.Observers, s.Alter, s.Metrics, s.Workers
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	c.Produce = func(round int, cl Client, params []float64) (Contribution, error) {
		t0 := time.Now()
		u, err := cl.TrainLocal(round, params)
		busy.Add(int64(time.Since(t0)))
		if err != nil {
			return Contribution{}, fmt.Errorf("fl: client %d round %d: %w", cl.ID(), round, err)
		}
		return Contribution{Update: u}, nil
	}
	out, err := c.Run(round, s.global, s.Clients)
	if err != nil {
		return err
	}
	s.global = out.Global
	s.round = round + 1
	s.Metrics.RecordWorkerPool(out.Workers, time.Duration(busy.Load()), time.Since(start))
	return nil
}

// Run executes communication rounds until the server has completed rounds
// of them in total. A freshly constructed server runs rounds 0..rounds-1;
// a server restored from a checkpoint continues from its restored round.
func (s *Server) Run(rounds int) error {
	for s.round < rounds {
		if err := s.RunRound(s.round); err != nil {
			return err
		}
	}
	return nil
}

// Aggregate computes the sample-weighted FedAvg mean of the updates. All
// update vectors must share one length; a mismatch is reported as an error
// instead of panicking, so one misbehaving client cannot crash the
// aggregator. It is the batch form of Fold: updates fold in slice order,
// so the result is bit-identical to a streaming fold over the same order.
func Aggregate(updates []Update) ([]float64, error) {
	if len(updates) == 0 {
		return nil, errZeroFold
	}
	f := NewFold(len(updates[0].Params))
	for _, u := range updates {
		if err := f.Fold(u); err != nil {
			return nil, err
		}
	}
	out, _, err := f.Finalize()
	return out, err
}
