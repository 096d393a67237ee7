// Package flcli holds the small amount of logic the multi-process FL
// commands (cmd/flserver, cmd/flclient) share: flag parsing for dataset
// presets and the on-disk format of a federated global model.
package flcli

import (
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/telemetry"
	"github.com/cip-fl/cip/internal/tensor"
)

// ParseDataset maps the CLI names onto presets and scales.
func ParseDataset(name, scaleName string) (datasets.Preset, datasets.Scale, error) {
	var p datasets.Preset
	switch strings.ToLower(name) {
	case "cifar100", "cifar-100":
		p = datasets.CIFAR100
	case "cifaraug", "cifar-aug":
		p = datasets.CIFARAUG
	case "chmnist", "ch-mnist":
		p = datasets.CHMNIST
	case "purchase50", "purchase-50":
		p = datasets.Purchase50
	default:
		return 0, 0, fmt.Errorf("unknown dataset %q (want cifar100, cifaraug, chmnist, purchase50)", name)
	}
	switch scaleName {
	case "quick":
		return p, datasets.Quick, nil
	case "full":
		return p, datasets.Full, nil
	default:
		return 0, 0, fmt.Errorf("unknown preset %q (want quick or full)", scaleName)
	}
}

// ArchFor picks the backbone family the multi-process federation uses for
// a dataset (VGG for images — the fast family — and MLP for tabular).
func ArchFor(p datasets.Preset) model.Arch {
	if p == datasets.Purchase50 {
		return model.MLP
	}
	return model.VGG
}

// Global is the on-disk format of a federated global model produced by
// flserver: enough metadata to reconstruct the architecture plus the
// parameter vector. Clients keep their own t; it is never part of this.
type Global struct {
	Preset datasets.Preset
	Scale  datasets.Scale
	Seed   int64
	Arch   model.Arch
	Params []float64
}

// maxModelFileBytes caps how much of a model file either loader will
// read: global models and artifacts at our scales are a few MiB, so 1 GiB
// is an absurdly generous bound that still stops a mislabeled or hostile
// multi-terabyte file from reaching the decoder.
const maxModelFileBytes = 1 << 30

// SaveGlobal writes the global model atomically in the checksummed
// checkpoint container format (temp file → fsync → rename), so a crash
// mid-save can never leave a silently truncated model behind.
func SaveGlobal(path string, p datasets.Preset, s datasets.Scale, seed int64,
	arch model.Arch, params []float64) error {
	g := Global{Preset: p, Scale: s, Seed: seed, Arch: arch, Params: params}
	if err := checkpoint.WriteFile(path, checkpoint.KindGlobal, &g); err != nil {
		return fmt.Errorf("flcli: saving global model: %w", err)
	}
	return nil
}

// LoadGlobal reads a global model written by SaveGlobal. The file is
// validated end to end (magic, kind, length, checksum) before decoding;
// a file without the container fails with an error wrapping
// checkpoint.ErrNotCheckpoint. Corruption surfaces as a clean error,
// never a panic or an unbounded allocation.
func LoadGlobal(path string) (*Global, error) {
	var g Global
	if err := checkpoint.ReadFile(path, checkpoint.KindGlobal, maxModelFileBytes, &g); err != nil {
		return nil, fmt.Errorf("flcli: loading global model: %w", err)
	}
	return &g, nil
}

// ShutdownSignal installs SIGINT/SIGTERM handling shared by every FL
// command: the returned channel closes on the first signal (callers treat
// it as a graceful round-boundary stop), and a second signal exits
// immediately with status 1 for operators who really mean it.
func ShutdownSignal() <-chan struct{} {
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "shutdown requested; finishing the current round (signal again to abort)")
		close(stop)
		<-sigs
		fmt.Fprintln(os.Stderr, "aborting")
		os.Exit(1)
	}()
	return stop
}

// StartTelemetry starts the opt-in telemetry endpoint every FL command
// exposes behind -metrics-addr. An empty addr disables telemetry and
// returns a nil registry (whose metrics are all no-ops). The returned
// stop function is safe to call on the nil-telemetry path too.
func StartTelemetry(addr string) (*telemetry.Registry, func(), error) {
	if addr == "" {
		return nil, func() {}, nil
	}
	reg := telemetry.NewRegistry()
	tensor.EnableMetrics(reg)
	srv, err := telemetry.Serve(addr, reg)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("telemetry: http://%s/metrics (Prometheus), /debug/vars (expvar), /debug/pprof\n",
		srv.Addr())
	return reg, func() { srv.Close() }, nil //nolint:errcheck
}
