package checkpoint_test

// Crash harness for the compressed in-process engine: with a
// compress.Bank on the round policy, the server-side error-feedback
// residuals become part of the durable state. A crash between
// checkpoints must restore the bank from the snapshot container and
// replay to a final state bit-identical to an uninterrupted compressed
// run — a residual lost or doubled across the restart would skew every
// subsequent reconstruction.

import (
	"errors"
	"path/filepath"
	"testing"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/faults"
)

func bankFederation(t *testing.T) *fl.Server {
	t.Helper()
	srv := buildFederation(t, true)
	srv.Policy = &fl.RoundPolicy{
		MinQuorum: 1,
		Compress:  compress.NewBank(compress.Config{Mode: compress.TopKQ16, TopKFrac: 0.25}),
	}
	return srv
}

func TestCrashResumeCompressedBankBitIdentical(t *testing.T) {
	const every, crashAfter = 3, 3 // checkpoints after rounds 2 and 5; crash rewinds to round 3

	// Uninterrupted compressed durable run: the reference result.
	base := bankFederation(t)
	baseMgr := &checkpoint.Manager{Path: filepath.Join(t.TempDir(), "base.ckpt")}
	err := base.RunWithOptions(harnessRounds, fl.RunOptions{
		CheckpointEvery: every,
		Save: func(st *fl.ServerState) error {
			return baseMgr.Save(&checkpoint.Snapshot{State: *st})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := finalState(t, base)

	// The compression must be in the loop: a dense run of the same
	// federation lands somewhere else.
	dense := buildFederation(t, true)
	if err := dense.Run(harnessRounds); err != nil {
		t.Fatal(err)
	}
	if g := dense.Global(); g[0] == want.Global[0] && g[len(g)-1] == want.Global[len(g)-1] {
		t.Fatal("compressed and dense runs agree — the bank is not in the aggregation path")
	}

	// Crash mid-run, rebuild the process, restore from the container.
	mgr := &checkpoint.Manager{Path: filepath.Join(t.TempDir(), "state.ckpt")}
	save := func(st *fl.ServerState) error {
		return mgr.Save(&checkpoint.Snapshot{State: *st})
	}
	crashed := bankFederation(t)
	err = crashed.RunWithOptions(harnessRounds, fl.RunOptions{
		CheckpointEvery: every,
		Save:            save,
		AfterRound:      faults.CrashAt(crashAfter),
	})
	if !errors.Is(err, faults.ErrCrash) {
		t.Fatalf("crashed run: got %v, want ErrCrash", err)
	}

	snap, err := mgr.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.State.Compress) == 0 {
		t.Fatal("snapshot container carries no bank state — EF residuals were not persisted")
	}
	resumed := bankFederation(t)
	if err := resumed.RestoreState(&snap.State); err != nil {
		t.Fatal(err)
	}
	err = resumed.RunWithOptions(harnessRounds, fl.RunOptions{
		CheckpointEvery: every, Save: save,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, want, finalState(t, resumed))
}

// TestRestoreRejectsBankConfigMismatch: restoring a snapshot whose bank
// was built under a different compression config is a hard error — a
// silently reinterpreted residual would corrupt the federation.
func TestRestoreRejectsBankConfigMismatch(t *testing.T) {
	srv := bankFederation(t)
	if err := srv.Run(2); err != nil {
		t.Fatal(err)
	}
	st, err := srv.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	other := buildFederation(t, true)
	other.Policy = &fl.RoundPolicy{
		MinQuorum: 1,
		Compress:  compress.NewBank(compress.Config{Mode: compress.Q8}),
	}
	if err := other.RestoreState(st); err == nil {
		t.Fatal("bank config mismatch accepted on restore")
	}
}
