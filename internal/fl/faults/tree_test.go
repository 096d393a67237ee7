package faults

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/wire"
)

// TestCutFrameTearsScheduledFrame proves the cutter passes earlier frames
// through intact, truncates exactly the scheduled one, and closes the
// connection so the peer sees a torn frame followed by EOF.
func TestCutFrameTearsScheduledFrame(t *testing.T) {
	client, server := net.Pipe()
	cut := CutFrame(client, wire.MsgPartial2, 1) // tear the 2nd partial

	frame := wire.AppendPartial2Frame(nil, fl.Partial{
		LeafID: 1, Round: 0, Sum: []float64{1, 2, 3}, Weight: 4, Count: 2,
	})
	got := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(server)
		got <- data
	}()

	if _, err := cut.Write(frame); err != nil {
		t.Fatalf("first frame should pass: %v", err)
	}
	if cut.Fired() {
		t.Fatal("cutter fired on the skipped frame")
	}
	n, err := cut.Write(frame)
	if !errors.Is(err, ErrFrameCut) {
		t.Fatalf("scheduled frame should cut, got n=%d err=%v", n, err)
	}
	if n != len(frame)/2 {
		t.Fatalf("wrote %d of a scheduled half-frame (%d)", n, len(frame)/2)
	}
	if !cut.Fired() {
		t.Fatal("cutter did not report firing")
	}
	data := <-got
	want := len(frame) + len(frame)/2
	if len(data) != want {
		t.Fatalf("peer received %d bytes, want %d (one whole + one torn frame)", len(data), want)
	}
	if !bytes.Equal(data[:len(frame)], frame) {
		t.Fatal("first frame corrupted in transit")
	}
	// A torn frame must not decode: the reader sees a valid header whose
	// declared payload never arrives.
	if _, err := wire.ReadFrame(bytes.NewReader(data[len(frame):]), len(frame)); err == nil {
		t.Fatal("torn frame decoded cleanly")
	}
	// Further writes on the cut connection fail.
	if _, err := cut.Write(frame); err == nil {
		t.Fatal("write after cut succeeded")
	}
}

// TestCutFrameIgnoresOtherTypes proves type filtering: frames of other
// types never trigger the cut.
func TestCutFrameIgnoresOtherTypes(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	go func() { io.Copy(io.Discard, server) }() //nolint:errcheck
	cut := CutFrame(client, wire.MsgPartial2, 0)
	frame := wire.AppendRoundFrame(nil, 0, -1, []float64{1})
	for i := 0; i < 3; i++ {
		if _, err := cut.Write(frame); err != nil {
			t.Fatalf("round frame %d should pass a partial-targeted cutter: %v", i, err)
		}
	}
	if cut.Fired() {
		t.Fatal("cutter fired on a non-matching frame type")
	}
}

// TestDrawKillPlanDeterministic pins the plan to its seed: same seed →
// same plan, and the event count and per-round uniqueness hold.
func TestDrawKillPlanDeterministic(t *testing.T) {
	victims := []int{100, 101, 200}
	a := DrawKillPlan(rand.New(rand.NewSource(7)), 10, victims, 5)
	b := DrawKillPlan(rand.New(rand.NewSource(7)), 10, victims, 5)
	total := 0
	for round, vs := range a {
		if round < 0 || round >= 10 {
			t.Fatalf("round %d outside the schedule", round)
		}
		seen := map[int]bool{}
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("round %d kills node %d twice", round, v)
			}
			seen[v] = true
		}
		total += len(vs)
		bvs := b.Victims(round)
		if len(bvs) != len(vs) {
			t.Fatalf("plans diverged at round %d", round)
		}
		for i := range vs {
			if vs[i] != bvs[i] {
				t.Fatalf("plans diverged at round %d", round)
			}
		}
	}
	if total != 5 {
		t.Fatalf("plan schedules %d kills, want 5", total)
	}
	// Oversized requests clamp to the event space.
	c := DrawKillPlan(rand.New(rand.NewSource(1)), 2, []int{1}, 99)
	n := 0
	for _, vs := range c {
		n += len(vs)
	}
	if n != 2 {
		t.Fatalf("clamped plan schedules %d kills, want 2", n)
	}
}

// TestPartitionGate proves the dial gate fails fast while split and
// passes through after healing.
func TestPartitionGate(t *testing.T) {
	var p Partition
	dialed := 0
	dial := p.Gate(func(addr string) (net.Conn, error) {
		dialed++
		c, s := net.Pipe()
		s.Close()
		return c, nil
	})
	if _, err := dial("x"); err != nil {
		t.Fatalf("healed gate blocked: %v", err)
	}
	p.Split()
	if !p.Isolated() {
		t.Fatal("split partition not isolated")
	}
	if _, err := dial("x"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("split gate passed: %v", err)
	}
	p.Heal()
	if _, err := dial("x"); err != nil {
		t.Fatalf("healed gate blocked: %v", err)
	}
	if dialed != 2 {
		t.Fatalf("inner dialer ran %d times, want 2", dialed)
	}
}
