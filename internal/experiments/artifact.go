package experiments

import (
	"fmt"
	"math/rand"

	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/telemetry"
)

// Artifact is a trained model saved to disk by ciptrain and consumed by
// cipattack: the final global parameter vector plus everything needed to
// reconstruct the architecture and (for CIP) the evaluation perturbation.
type Artifact struct {
	Preset datasets.Preset
	Scale  datasets.Scale
	Seed   int64
	Arch   model.Arch

	// CIP is true for dual-channel CIP models.
	CIP   bool
	Alpha float64
	// T is client 0's perturbation (saved so the artifact's owner can
	// evaluate utility; an attacker tool must NOT use it).
	T []float64

	Params []float64
}

// maxArtifactBytes bounds how much of an artifact file LoadArtifact will
// read before giving up; see flcli's matching bound for rationale.
const maxArtifactBytes = 1 << 30

// Save writes the artifact atomically in the checksummed checkpoint
// container format, so a crash mid-save can never leave a silently
// truncated artifact behind.
func (a *Artifact) Save(path string) error {
	if err := checkpoint.WriteFile(path, checkpoint.KindArtifact, a); err != nil {
		return fmt.Errorf("experiments: saving artifact: %w", err)
	}
	return nil
}

// LoadArtifact reads an artifact written by Save. The file is validated
// (magic, kind, length, checksum) before decoding; a file without the
// container fails with an error wrapping checkpoint.ErrNotCheckpoint.
func LoadArtifact(path string) (*Artifact, error) {
	var a Artifact
	if err := checkpoint.ReadFile(path, checkpoint.KindArtifact, maxArtifactBytes, &a); err != nil {
		return nil, fmt.Errorf("experiments: loading artifact: %w", err)
	}
	return &a, nil
}

// Data reloads the dataset the artifact was trained on (generation is
// deterministic in the seed).
func (a *Artifact) Data() (*datasets.Data, error) {
	return datasets.Load(a.Preset, a.Scale, a.Seed)
}

// Net reconstructs the model. For CIP artifacts, withT selects whether the
// saved perturbation is applied (owner's view) or the zero perturbation
// (attacker's view).
func (a *Artifact) Net(withT bool) (nn.Layer, error) {
	d, err := a.Data()
	if err != nil {
		return nil, err
	}
	if !a.CIP {
		net := model.NewClassifier(rand.New(rand.NewSource(a.Seed+1)), a.Arch,
			d.Train.In, d.Train.NumClasses)
		if err := nn.SetFlatParams(net.Params(), a.Params); err != nil {
			return nil, err
		}
		return net, nil
	}
	dual := core.NewDualChannelModel(rand.New(rand.NewSource(a.Seed+1)), a.Arch,
		d.Train.In, d.Train.NumClasses)
	if err := nn.SetFlatParams(dual.Params(), a.Params); err != nil {
		return nil, err
	}
	shape := []int{d.Train.In.C}
	if d.Train.In.IsImage() {
		shape = []int{d.Train.In.C, d.Train.In.H, d.Train.In.W}
	}
	pt := nn.NewParam("t", shape...).Value
	if withT {
		if len(a.T) != pt.Size() {
			return nil, fmt.Errorf("experiments: artifact perturbation has %d values, want %d",
				len(a.T), pt.Size())
		}
		copy(pt.Data, a.T)
	}
	return core.NewCIPModel(dual, pt, a.Alpha), nil
}

// TrainArtifact runs a federation on the preset and returns the artifact.
// alpha > 0 selects CIP; alpha == 0 trains the undefended legacy model.
func TrainArtifact(p datasets.Preset, scale datasets.Scale, seed int64,
	clients, rounds int, alpha float64) (*Artifact, error) {
	return TrainArtifactObserved(p, scale, seed, clients, rounds, alpha, nil)
}

// TrainArtifactObserved is TrainArtifact with live telemetry: when reg is
// non-nil the federation records round metrics and the CIP trainer
// records Step I/II losses and epoch timings into it (cmd/ciptrain serves
// these under -metrics-addr).
func TrainArtifactObserved(p datasets.Preset, scale datasets.Scale, seed int64,
	clients, rounds int, alpha float64, reg *telemetry.Registry) (*Artifact, error) {
	d, err := datasets.Load(p, scale, seed)
	if err != nil {
		return nil, err
	}
	arch := archFor(p, scale)
	a := &Artifact{Preset: p, Scale: scale, Seed: seed, Arch: arch, Alpha: alpha}
	if alpha > 0 {
		run, err := runCIP(d.Train, arch, clients, rounds, alpha, seed,
			cipOpts{augment: d.Augment, telemetry: reg})
		if err != nil {
			return nil, err
		}
		a.CIP = true
		a.Params = run.Global
		a.T = append([]float64(nil), run.Clients[0].Perturbation().T.Data...)
		return a, nil
	}
	run, err := runLegacy(d.Train, arch, clients, rounds, seed,
		legacyOpts{augment: d.Augment, telemetry: reg})
	if err != nil {
		return nil, err
	}
	a.Params = run.Global
	return a, nil
}
