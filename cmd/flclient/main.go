// Command flclient joins a multi-process CIP federation coordinated by
// cmd/flserver. It loads its shard of the dataset (shard -id of -of),
// initializes its secret perturbation, and participates until the server
// signals completion. The perturbation never leaves the process.
//
//	flclient -addr localhost:9000 -id 0 -of 2 -dataset chmnist -alpha 0.9
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/transport"
	"github.com/cip-fl/cip/internal/flcli"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flclient:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "localhost:9000", "server address")
	id := flag.Int("id", 0, "this client's index")
	of := flag.Int("of", 2, "total number of clients")
	dataset := flag.String("dataset", "chmnist", "preset (must match the server)")
	scaleName := flag.String("preset", "quick", "scale: quick or full (must match the server)")
	seed := flag.Int64("seed", 1, "seed (must match the server)")
	alpha := flag.Float64("alpha", 0.9, "CIP blending parameter")
	lambdaM := flag.Float64("lambda-m", 0.3, "Eq. 4 original-loss weight")
	dialRetries := flag.Int("dial-retries", 10,
		"connection attempts before giving up (exponential backoff + jitter)")
	retryBase := flag.Duration("retry-base", 200*time.Millisecond,
		"initial backoff delay between connection attempts")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics, /debug/vars, and /debug/pprof on this address; empty disables telemetry")
	compressFlags := flcli.RegisterCompressFlags()
	flag.Parse()

	if *id < 0 || *id >= *of {
		return fmt.Errorf("id %d out of range for %d clients", *id, *of)
	}
	ccfg, err := compressFlags.Config()
	if err != nil {
		return err
	}
	p, scale, err := flcli.ParseDataset(*dataset, *scaleName)
	if err != nil {
		return err
	}
	d, err := datasets.Load(p, scale, *seed)
	if err != nil {
		return err
	}
	// Every process derives the same partition from the shared seed and
	// takes its own shard.
	shards := datasets.PartitionIID(d.Train, *of, rand.New(rand.NewSource(*seed)))
	shard := shards[*id]

	reg, stopTelemetry, err := flcli.StartTelemetry(*metricsAddr)
	if err != nil {
		return err
	}
	defer stopTelemetry()

	arch := flcli.ArchFor(p)
	dual := core.NewDualChannelModel(rand.New(rand.NewSource(*seed+1)), arch,
		d.Train.In, d.Train.NumClasses)
	cfg := core.TrainConfig{
		Alpha:     *alpha,
		LambdaT:   1e-6,
		LambdaM:   *lambdaM,
		PerturbLR: 0.02,
		BatchSize: 16,
		LR:        fl.DecaySchedule(0.04, 40),
		Momentum:  0.9,
		Metrics:   core.NewMetrics(reg),
	}
	// Stateful construction keeps the client resumable: if the server
	// restarts from a snapshot mid-federation, this client rolls its local
	// state back to the server's resume round and continues.
	client := core.NewStatefulClient(*id, dual, shard, cfg, core.BlendSeed(*seed, *id),
		*seed+int64(100+*id))

	fmt.Printf("client %d/%d joining %s (%d local samples, alpha=%g)\n",
		*id, *of, *addr, shard.Len(), *alpha)
	retry := transport.RetryConfig{
		MaxAttempts: *dialRetries,
		BaseDelay:   *retryBase,
		Rng:         rand.New(rand.NewSource(*seed + int64(1000+*id))),
		Stop:        flcli.ShutdownSignal(),
		Metrics:     transport.NewMetrics(reg),
	}
	if ccfg.Mode != compress.None {
		// The offer travels in canonical form.
		retry.Compress = ccfg.Mode.String()
		retry.TopKFrac = ccfg.TopKFrac
		fmt.Printf("offering %s update compression (top-k frac %g)\n", ccfg.Mode, ccfg.TopKFrac)
	}
	if err := transport.RunClientRetry(*addr, client, retry); err != nil {
		if errors.Is(err, transport.ErrClientStopped) {
			fmt.Println("stopped")
			return nil
		}
		return err
	}
	fmt.Printf("done; local test accuracy with own t: %.3f\n",
		fl.Evaluate(client.Model(), d.Test, 64))
	return nil
}
