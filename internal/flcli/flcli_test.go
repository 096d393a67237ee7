package flcli

import (
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/experiments"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/model"
)

func TestParseDataset(t *testing.T) {
	tests := []struct {
		name, scale string
		wantPreset  datasets.Preset
		wantScale   datasets.Scale
		wantErr     bool
	}{
		{"cifar100", "quick", datasets.CIFAR100, datasets.Quick, false},
		{"CIFAR-100", "full", datasets.CIFAR100, datasets.Full, false},
		{"cifaraug", "quick", datasets.CIFARAUG, datasets.Quick, false},
		{"chmnist", "quick", datasets.CHMNIST, datasets.Quick, false},
		{"purchase50", "quick", datasets.Purchase50, datasets.Quick, false},
		{"bogus", "quick", 0, 0, true},
		{"chmnist", "bogus", 0, 0, true},
	}
	for _, tt := range tests {
		p, s, err := ParseDataset(tt.name, tt.scale)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseDataset(%q, %q) accepted", tt.name, tt.scale)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDataset(%q, %q): %v", tt.name, tt.scale, err)
			continue
		}
		if p != tt.wantPreset || s != tt.wantScale {
			t.Errorf("ParseDataset(%q, %q) = (%v, %v), want (%v, %v)",
				tt.name, tt.scale, p, s, tt.wantPreset, tt.wantScale)
		}
	}
}

func TestArchFor(t *testing.T) {
	if got := ArchFor(datasets.Purchase50); got != model.MLP {
		t.Errorf("ArchFor(Purchase50) = %v, want MLP", got)
	}
	if got := ArchFor(datasets.CHMNIST); got != model.VGG {
		t.Errorf("ArchFor(CHMNIST) = %v, want VGG", got)
	}
}

func TestGlobalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.gob")
	params := []float64{1, 2, 3.5}
	if err := SaveGlobal(path, datasets.CHMNIST, datasets.Quick, 7, model.VGG, params); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGlobal(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Preset != datasets.CHMNIST || g.Seed != 7 || g.Arch != model.VGG {
		t.Fatalf("metadata lost: %+v", g)
	}
	for i, v := range params {
		if g.Params[i] != v {
			t.Fatalf("params[%d] = %v, want %v", i, g.Params[i], v)
		}
	}
}

func TestLoadGlobalMissing(t *testing.T) {
	if _, err := LoadGlobal(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// TestBareGobModelFilesRejected: model files from before the checkpoint
// container (a bare gob Global or Artifact) no longer load; both loaders
// fail with an error wrapping checkpoint.ErrNotCheckpoint.
func TestBareGobModelFilesRejected(t *testing.T) {
	dir := t.TempDir()
	writeGob := func(name string, v any) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := gob.NewEncoder(f).Encode(v); err != nil {
			t.Fatal(err)
		}
		return path
	}
	g := writeGob("global.gob", Global{Preset: datasets.CHMNIST, Seed: 7, Arch: model.VGG, Params: []float64{1, 2}})
	if _, err := LoadGlobal(g); !errors.Is(err, checkpoint.ErrNotCheckpoint) {
		t.Fatalf("bare gob Global: err = %v, want ErrNotCheckpoint", err)
	}
	a := writeGob("artifact.gob", experiments.Artifact{Preset: datasets.Purchase50, Seed: 1, Params: []float64{3}})
	if _, err := experiments.LoadArtifact(a); !errors.Is(err, checkpoint.ErrNotCheckpoint) {
		t.Fatalf("bare gob Artifact: err = %v, want ErrNotCheckpoint", err)
	}
}
