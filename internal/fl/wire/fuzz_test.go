package wire

import (
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/robust"
)

// seedGolden seeds a fuzzer with every committed golden frame, so the
// corpus starts from valid wire bytes and mutates outward.
func seedGolden(f *testing.F, add func([]byte)) {
	files, _ := filepath.Glob(filepath.Join("testdata", "*.hex"))
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		frame, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
		if err != nil {
			continue
		}
		add(frame)
	}
	if len(files) == 0 {
		f.Fatal("no golden corpus to seed from")
	}
}

// FuzzDecodeFrame hammers the full inbound path a hostile client reaches:
// frame header parse, budget check, payload read, structural update
// decode, densify. The invariants: never panic, never allocate a payload
// past the byte budget, and released buffers never double-free.
func FuzzDecodeFrame(f *testing.F) {
	seedGolden(f, func(b []byte) { f.Add(b, 4096) })
	f.Add([]byte{Magic, Version, MsgUpdate, 0, 0xFF, 0xFF, 0xFF, 0xFF}, 64)
	retired, _ := hex.DecodeString(retiredPartialFrame)
	f.Add(retired, 4096)
	f.Fuzz(func(t *testing.T, data []byte, budget int) {
		if budget < 0 {
			budget = -budget
		}
		budget %= 1 << 20
		fr, err := ReadFrame(bytes.NewReader(data), budget)
		if err != nil {
			return // any error is acceptable; a panic is not
		}
		defer fr.Release()
		if budget > 0 && len(fr.Payload) > budget {
			t.Fatalf("payload of %d bytes escaped budget %d", len(fr.Payload), budget)
		}
		switch fr.Type {
		case MsgRound:
			if _, _, params, err := DecodeRound(fr.Payload); err == nil {
				// A successful round decode allocates only what the
				// payload itself carried.
				if 8*len(params) > len(fr.Payload) {
					t.Fatalf("round decode expanded %d payload bytes to %d params",
						len(fr.Payload), len(params))
				}
			}
		case MsgUpdate:
			u, err := DecodeUpdate(fr.Mode, fr.Payload)
			if err != nil {
				return
			}
			// Structural decode may expand ≤8x (int8 codes to float64);
			// anything more means an attacker-controlled length slipped
			// through the size arithmetic.
			if len(u.Params) > len(fr.Payload) || len(u.Indices) > len(fr.Payload) {
				t.Fatalf("update decode expanded %d payload bytes to %d params / %d indices",
					len(fr.Payload), len(u.Params), len(u.Indices))
			}
			// Densify must validate-or-error, never panic, whatever the
			// decoded shape claims.
			global := make([]float64, 64)
			if dense, err := fl.Densify(u, global); err == nil && dense.Sparse() {
				t.Fatal("densify returned a sparse update without error")
			}
		case MsgPartial:
			t.Fatal("ReadFrame accepted the retired MsgPartial type")
		case MsgPartial2:
			if p, err := DecodePartial2(fr.Payload); err == nil {
				checkPartial2Expansion(t, p, len(fr.Payload))
				// Semantic validation must classify-or-error, never panic.
				_ = fl.ValidatePartial(p, len(p.Sum), 1e6)
			}
		case MsgRound2:
			if r, err := DecodeRound2(fr.Payload); err == nil {
				if 8*len(r.Params) > len(fr.Payload) {
					t.Fatalf("round2 decode expanded %d payload bytes to %d params",
						len(fr.Payload), len(r.Params))
				}
			}
		case MsgHello:
			DecodeHello(fr.Payload) //nolint:errcheck // FuzzDecodeHello checks results
		case MsgWelcome:
			DecodeWelcome(fr.Payload) //nolint:errcheck // FuzzDecodeHello checks results
		}
	})
}

// checkPartial2Expansion asserts a decoded v2 partial allocated no more
// floats than the payload itself carried (8 bytes each), sketch included.
func checkPartial2Expansion(t *testing.T, p fl.Partial, payloadLen int) {
	t.Helper()
	floats := len(p.Sum)
	if p.Sketch != nil {
		floats += len(p.Sketch.Keys)
		for _, row := range p.Sketch.Vals {
			floats += len(row)
		}
	}
	if 8*floats > payloadLen {
		t.Fatalf("partial2 decode expanded %d payload bytes to %d floats", payloadLen, floats)
	}
}

// FuzzDecodePartial hammers the partial decoder directly (no frame
// header) — the bytes a hostile or torn child connection can feed a
// parent's partial exchange. Invariants: never panic, never allocate
// beyond the payload's own size arithmetic, and semantic validation
// classifies without panicking whatever the structural decode admits.
func FuzzDecodePartial(f *testing.F) {
	seedGolden(f, func(b []byte) {
		if len(b) > HeaderLen && b[2] == MsgPartial2 {
			f.Add(b[HeaderLen:])
		}
	})
	sketchless := AppendPartial2Frame(nil, fl.Partial{
		LeafID: 1, Round: 2, Sum: []float64{3, -1}, Weight: 4, Count: 2, ExpectWeight: 4,
	})
	f.Add(sketchless[HeaderLen:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		p, err := DecodePartial2(payload)
		if err != nil {
			return
		}
		checkPartial2Expansion(t, p, len(payload))
		if err := fl.ValidatePartial(p, len(p.Sum), 1e6); err == nil && p.Sketch != nil {
			// A validated sketch must be structurally sound enough to
			// merge without panicking.
			m := robust.NewSketch(p.Sketch.Cap)
			if err := m.Merge(p.Sketch); err != nil && p.Sketch.Dim() == m.Dim() {
				t.Fatalf("validated sketch failed to merge: %v", err)
			}
		}
	})
}

// FuzzDecodeHello hammers both handshake decoders directly (no frame
// header) — the first bytes an unauthenticated peer sends, and the
// coordinator's answer. Invariants: never panic; whatever decodes is in
// range (non-negative IDs, counts and rounds, a bounded token, a known
// compression mode, a finite top-k fraction) and re-encodes to the exact
// payload it came from.
func FuzzDecodeHello(f *testing.F) {
	seedGolden(f, func(b []byte) {
		if len(b) > HeaderLen && (b[2] == MsgHello || b[2] == MsgWelcome) {
			f.Add(b[2] == MsgWelcome, b[HeaderLen:])
		}
	})
	f.Add(false, []byte{})
	f.Fuzz(func(t *testing.T, welcome bool, payload []byte) {
		var mode compress.Mode
		var frac float64
		var token string
		var again []byte
		if welcome {
			w, err := DecodeWelcome(payload)
			if err != nil {
				return
			}
			if w.NextRound < 0 {
				t.Fatalf("welcome with round %d accepted", w.NextRound)
			}
			mode, frac, token = w.Compress, w.TopKFrac, w.Token
			again = AppendWelcomeFrame(nil, w)
		} else {
			h, err := DecodeHello(payload)
			if err != nil {
				return
			}
			if h.ID < 0 || h.NumSamples < 0 {
				t.Fatalf("hello with ID %d, samples %d accepted", h.ID, h.NumSamples)
			}
			mode, frac, token = h.Compress, h.TopKFrac, h.Token
			again = AppendHelloFrame(nil, h)
		}
		if !mode.Valid() || math.IsNaN(frac) || math.IsInf(frac, 0) || len(token) > MaxTokenLen {
			t.Fatalf("out-of-range handshake accepted: mode %d, top-k %v, %d-byte token", mode, frac, len(token))
		}
		if !bytes.Equal(again[HeaderLen:], payload) {
			t.Fatalf("handshake re-encodes to %x, decoded from %x", again[HeaderLen:], payload)
		}
	})
}

// FuzzDecompressUpdate hammers the compressed-update payload decoder for
// each mode directly (no frame header), plus the densify step — the
// decompression path of the tentpole. Same invariants: no panic, no
// over-allocation past the payload's own size arithmetic.
func FuzzDecompressUpdate(f *testing.F) {
	seedGolden(f, func(b []byte) {
		if len(b) > HeaderLen && b[2] == MsgUpdate {
			f.Add(b[3], b[HeaderLen:])
		}
	})
	f.Fuzz(func(t *testing.T, modeByte byte, payload []byte) {
		mode := compress.Mode(modeByte)
		u, err := DecodeUpdate(mode, payload)
		if err != nil {
			return
		}
		if !mode.Valid() {
			t.Fatalf("invalid mode %d decoded successfully", modeByte)
		}
		if len(u.Params) > len(payload)+1 || len(u.Indices) > len(payload)+1 {
			t.Fatalf("mode %s expanded %d payload bytes to %d params / %d indices",
				mode, len(payload), len(u.Params), len(u.Indices))
		}
		global := make([]float64, 32)
		dense, err := fl.Densify(u, global)
		if err != nil {
			return
		}
		if u.Sparse() && len(dense.Params) != len(global) {
			t.Fatalf("densify produced %d params for a %d-param model",
				len(dense.Params), len(global))
		}
	})
}
