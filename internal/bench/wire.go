package bench

// Wire-path workloads: decode cost and bytes-per-update for the frame
// codec, dense and compressed, at the same 200k-parameter model
// dimensionality the robust-aggregation benchmarks use. Each spec reports
// wire-bytes/op — the per-update transfer size the compression work
// drives down — alongside ns/op, so cmd/cipbench's -wire-gate can hold
// the ≥10x byte-reduction and decode-speed lines against the retired gob
// decoder's recorded numbers.

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/wire"
)

const wireDim = 200_000

func wireUpdate() (fl.Update, []float64) {
	rng := rand.New(rand.NewSource(9))
	global := make([]float64, wireDim)
	params := make([]float64, wireDim)
	for i := range params {
		global[i] = rng.NormFloat64()
		params[i] = global[i] + 0.01*rng.NormFloat64()
	}
	return fl.Update{ClientID: 1, NumSamples: 64, TrainLoss: 0.5, Params: params}, global
}

// wireFrameDecode benchmarks ReadFrame + DecodeUpdate + Densify for one
// pre-encoded update frame — the full binary inbound path.
func wireFrameDecode(b *testing.B, cfg compress.Config) {
	u, global := wireUpdate()
	var frame []byte
	var err error
	if cfg.Mode == compress.None {
		frame, err = wire.AppendUpdateFrame(nil, u, nil, compress.None)
	} else {
		delta := make([]float64, wireDim)
		for i := range delta {
			delta[i] = u.Params[i] - global[i]
		}
		var d *compress.Delta
		d, err = cfg.Compress(delta)
		if err == nil {
			head := u
			head.Params = nil
			frame, err = wire.AppendUpdateFrame(nil, head, d, cfg.Mode)
		}
	}
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := wire.ReadFrame(bytes.NewReader(frame), len(frame))
		if err != nil {
			b.Fatal(err)
		}
		got, err := wire.DecodeUpdate(f.Mode, f.Payload)
		if err != nil {
			b.Fatal(err)
		}
		dense, err := fl.Densify(got, global)
		if err != nil {
			b.Fatal(err)
		}
		if len(dense.Params) != wireDim {
			b.Fatal("short decode")
		}
		f.Release()
	}
	b.ReportMetric(float64(len(frame)), "wire-bytes/op")
}

// WireBinaryDecode is the uncompressed binary frame: the dense payload
// the retired gob stream carried, zero reflection.
func WireBinaryDecode(b *testing.B) {
	wireFrameDecode(b, compress.Config{Mode: compress.None})
}

// WireTopK8Decode is the headline compressed shape: top-k (default 1%)
// with int8 quantization — the mode the ≥10x byte-reduction gate holds
// against the recorded gob baseline.
func WireTopK8Decode(b *testing.B) {
	wireFrameDecode(b, compress.Config{Mode: compress.TopKQ8}.WithDefaults())
}

// WireTopK16Decode is the conservative compressed shape: top-k with
// int16 quantization.
func WireTopK16Decode(b *testing.B) {
	wireFrameDecode(b, compress.Config{Mode: compress.TopKQ16}.WithDefaults())
}
