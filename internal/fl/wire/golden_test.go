package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/robust"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden wire fixtures")

// goldenVector is the fixed input behind every fixture. Values are exact
// in binary floating point so the fixtures are stable across platforms.
func goldenVector() []float64 {
	return []float64{0.5, -1.25, 3, 0, -0.0078125, 42.5, -6, 0.015625}
}

func goldenGlobal() []float64 {
	return []float64{1, 1, 1, 1, 1, 1, 1, 1}
}

const goldenToken = "0123456789abcdef0123456789abcdef"

// retiredPartialFrame is a frame of the retired MsgPartial type (the
// sketchless partial). Every decoder must reject it.
const retiredPartialFrame = "cf01040058000000030000000200000004000000000000000000444008000000" +
	"000000000000e03f000000000000f4bf000000000000084000000000000000000000" +
	"0000000080bf000000000040454000000000000018c0000000000000903f"

// goldenFrames builds the committed conformance corpus: one frame per
// codec version × message type × compression mode, always from the same
// inputs. Any byte-level change to the wire format shows up as a reviewed
// fixture diff instead of a silent incompatibility.
func goldenFrames(t *testing.T) map[string][]byte {
	t.Helper()
	sk := robust.NewSketch(4)
	for i := 1; i <= 3; i++ {
		row := goldenVector()
		for j := range row {
			row[j] *= 0.5 * float64(i) // exact in binary floating point
		}
		sk.Add(robust.KeyClient(i), row)
	}
	frames := map[string][]byte{
		"v1_round": AppendRoundFrame(nil, 3, 1, goldenVector()),
		"v1_done":  AppendDoneFrame(nil),
		"hello": AppendHelloFrame(nil, Hello{
			ID: 5, NumSamples: 17, Token: goldenToken,
			Compress: compress.TopKQ8, TopKFrac: 0.25,
		}),
		"welcome": AppendWelcomeFrame(nil, Welcome{
			Token: goldenToken, NextRound: 3, Resumed: true,
			Compress: compress.TopKQ8, TopKFrac: 0.25,
		}),
		"v2_partial": AppendPartial2Frame(nil, fl.Partial{
			LeafID: 2, Round: 3, Sum: goldenVector(), Weight: 40, Count: 4,
			ExpectWeight: 48, Degraded: true, Sketch: sk,
		}),
		"v2_round": AppendRound2Frame(nil, Round2{
			Round: 3, Durable: 1, SampleFrac: 0.5, SampleSeed: 42,
			SketchCap: 64, Params: goldenVector(),
		}),
	}
	global := goldenGlobal()
	params := goldenVector()
	u := fl.Update{ClientID: 5, NumSamples: 17, TrainLoss: 0.375}
	for _, cfg := range allModes() {
		cfg := cfg.WithDefaults()
		var frame []byte
		var err error
		if cfg.Mode == compress.None {
			uu := u
			uu.Params = params
			frame, err = AppendUpdateFrame(nil, uu, nil, cfg.Mode)
		} else {
			delta := make([]float64, len(params))
			for i := range delta {
				delta[i] = params[i] - global[i]
			}
			var d *compress.Delta
			d, err = cfg.Compress(delta)
			if err == nil {
				frame, err = AppendUpdateFrame(nil, u, d, cfg.Mode)
			}
		}
		if err != nil {
			t.Fatalf("building %s fixture: %v", cfg.Mode, err)
		}
		frames[fmt.Sprintf("v1_update_%s", cfg.Mode)] = frame
	}
	return frames
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".hex")
}

// TestGoldenWireFormat pins the exact bytes of every frame kind. A
// mismatch means the wire format changed: either bump Version and add new
// fixtures, or revert — never regenerate silently.
func TestGoldenWireFormat(t *testing.T) {
	frames := goldenFrames(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		for name, frame := range frames {
			data := hex.EncodeToString(frame) + "\n"
			if err := os.WriteFile(goldenPath(name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, frame := range frames {
		raw, err := os.ReadFile(goldenPath(name))
		if err != nil {
			t.Fatalf("missing fixture %s (run with -update to create): %v", name, err)
		}
		want, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
		if err != nil {
			t.Fatalf("fixture %s is not hex: %v", name, err)
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("%s: encoder output diverged from the committed wire format\n got %x\nwant %x",
				name, frame, want)
		}
	}
}

// TestGoldenFramesDecode proves every committed fixture still decodes —
// the other half of conformance: bytes written by any past version of the
// encoder must keep parsing, except frames of the retired MsgPartial
// type, which must be rejected.
func TestGoldenFramesDecode(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.hex"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden fixtures found (%v)", err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		f, err := ReadFrame(bytes.NewReader(frame), len(frame))
		if err != nil {
			t.Fatalf("%s: ReadFrame: %v", path, err)
		}
		switch f.Type {
		case MsgRound:
			if _, _, _, err := DecodeRound(f.Payload); err != nil {
				t.Errorf("%s: DecodeRound: %v", path, err)
			}
		case MsgUpdate:
			u, err := DecodeUpdate(f.Mode, f.Payload)
			if err != nil {
				t.Errorf("%s: DecodeUpdate: %v", path, err)
				break
			}
			if _, err := fl.Densify(u, goldenGlobal()); err != nil {
				t.Errorf("%s: Densify: %v", path, err)
			}
		case MsgDone:
			if len(f.Payload) != 0 {
				t.Errorf("%s: done frame carries %d payload bytes", path, len(f.Payload))
			}
		case MsgPartial2:
			p, err := DecodePartial2(f.Payload)
			if err != nil {
				t.Errorf("%s: DecodePartial2: %v", path, err)
				break
			}
			if err := fl.ValidatePartial(p, len(p.Sum), 0); err != nil {
				t.Errorf("%s: ValidatePartial: %v", path, err)
			}
		case MsgRound2:
			if _, err := DecodeRound2(f.Payload); err != nil {
				t.Errorf("%s: DecodeRound2: %v", path, err)
			}
		case MsgHello:
			if h, err := DecodeHello(f.Payload); err != nil {
				t.Errorf("%s: DecodeHello: %v", path, err)
			} else if h.Token != goldenToken {
				t.Errorf("%s: hello token %q", path, h.Token)
			}
		case MsgWelcome:
			if w, err := DecodeWelcome(f.Payload); err != nil {
				t.Errorf("%s: DecodeWelcome: %v", path, err)
			} else if w.Token != goldenToken {
				t.Errorf("%s: welcome token %q", path, w.Token)
			}
		default:
			t.Errorf("%s: frame type %d has no decoder", path, f.Type)
		}
		f.Release()
	}
	retired, err := hex.DecodeString(retiredPartialFrame)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bytes.NewReader(retired), len(retired)); !errors.Is(err, ErrFrameType) {
		t.Fatalf("retired MsgPartial frame: ReadFrame err = %v, want ErrFrameType", err)
	}
}
