package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/robust"
)

// Payload codecs. Layouts (little-endian throughout):
//
// Round (MsgRound, mode always None):
//
//	round   uint32
//	durable int32   (last durable round; -1 when durability is off)
//	n       uint32  (parameter count)
//	params  n × float64
//
// Update (MsgUpdate; body depends on the frame's compression mode):
//
//	clientID   uint32
//	numSamples uint32
//	trainLoss  float64
//	denseLen   uint32  (dense length of the model vector)
//	body:
//	  none:   denseLen × float64           raw dense parameters
//	  topk:   k uint32, k × uint32 indices, k × float64 delta values
//	  q8/q16: min float64, max float64, denseLen × (1|2) byte codes
//	  topk8/topk16:
//	          k uint32, min float64, max float64,
//	          k × uint32 indices, k × (1|2) byte codes
//
// Compressed bodies are DELTAS against the round's broadcast global (the
// decode side surfaces them as fl.Update{IsDelta: true} for fl.Densify);
// mode none carries raw parameters, making an uncompressed federation
// bit-identical to an in-process one.
//
// Done (MsgDone): empty payload.
//
// Partial (MsgPartial2, mode always None) — a child aggregator's
// pre-division contribution for one round, with coverage metadata and an
// optional mergeable row sketch:
//
//	round   uint32
//	leafID  uint32
//	count   uint32  (client updates folded into the sums)
//	flags   uint32  (bit0 = degraded, bit1 = sketch present)
//	weight  float64 (total FedAvg weight Σ w)
//	expect  float64 (the subtree's planned cohort weight this round)
//	n       uint32  (parameter count)
//	sum     n × float64 (weighted parameter sums Σ w·v)
//	sketch (only when flags bit1):
//	  cap  uint32
//	  rows uint32  (total rows the sketch represents)
//	  k    uint32  (retained rows; keys sorted ascending)
//	  keys k × uint64
//	  vals k × n × float64
//
// Round2 (MsgRound2, mode always None) — the round broadcast a tree
// parent sends its child aggregators, carrying the root-coordinated
// shard-sampling directive and sketch capacity alongside the round fields:
//
//	round      uint32
//	durable    int32
//	sampleFrac float64
//	sampleSeed uint64
//	sketchCap  uint32
//	n          uint32
//	params     n × float64
//
// Hello (MsgHello) and Welcome (MsgWelcome), mode always None: see
// handshake.go.
//
// Every decoder validates the exact size arithmetic before touching the
// body, allocates nothing larger than ~8× the received payload, and runs
// under a panic guard — the update path parses attacker-controlled bytes.

const (
	roundHeadLen    = 12
	updateHeadLen   = 20
	partial2HeadLen = 36
	sketchHeadLen   = 12
	round2HeadLen   = 32
)

// Partial2 flag bits.
const (
	partial2Degraded  = 1 << 0
	partial2HasSketch = 1 << 1
)

func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func appendF64(dst []byte, v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return append(dst, b[:]...)
}

func appendF64s(dst []byte, vs []float64) []byte {
	for _, v := range vs {
		dst = appendF64(dst, v)
	}
	return dst
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func getU32(b []byte) uint32  { return binary.LittleEndian.Uint32(b) }
func getU64(b []byte) uint64  { return binary.LittleEndian.Uint64(b) }
func getF64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// RoundPayloadLen returns the round payload size for n parameters.
func RoundPayloadLen(n int) int { return roundHeadLen + 8*n }

// AppendRoundFrame appends a complete MsgRound frame (header + payload)
// broadcasting params for the given round. durable is the coordinator's
// last durable round (-1 when durability is off).
func AppendRoundFrame(dst []byte, round, durable int, params []float64) []byte {
	dst = AppendHeader(dst, MsgRound, compress.None, RoundPayloadLen(len(params)))
	dst = appendU32(dst, uint32(round))
	dst = appendU32(dst, uint32(int32(durable)))
	dst = appendU32(dst, uint32(len(params)))
	return appendF64s(dst, params)
}

// AppendDoneFrame appends a complete MsgDone frame.
func AppendDoneFrame(dst []byte) []byte {
	return AppendHeader(dst, MsgDone, compress.None, 0)
}

// DecodeRound parses a MsgRound payload.
func DecodeRound(payload []byte) (round, durable int, params []float64, err error) {
	defer recoverDecode(&err)
	if len(payload) < roundHeadLen {
		return 0, 0, nil, fmt.Errorf("%w: round payload of %d bytes", ErrTruncated, len(payload))
	}
	round = int(getU32(payload[0:]))
	durable = int(int32(getU32(payload[4:])))
	n := int(getU32(payload[8:]))
	if len(payload) != RoundPayloadLen(n) {
		return 0, 0, nil, fmt.Errorf("%w: round declares %d params in %d bytes, want %d",
			ErrPayload, n, len(payload), RoundPayloadLen(n))
	}
	params = make([]float64, n)
	for i := range params {
		params[i] = getF64(payload[roundHeadLen+8*i:])
	}
	return round, durable, params, nil
}

// Partial2PayloadLen returns the MsgPartial2 payload size for n parameters
// and k retained sketch rows (k is ignored when the sketch is absent).
func Partial2PayloadLen(n, k int, hasSketch bool) int {
	size := partial2HeadLen + 8*n
	if hasSketch {
		size += sketchHeadLen + 8*k + 8*k*n
	}
	return size
}

// AppendPartial2Frame appends a complete MsgPartial2 frame carrying a
// subtree's pre-division sums, coverage metadata, and (when present) its
// mergeable row sketch.
func AppendPartial2Frame(dst []byte, p fl.Partial) []byte {
	var k int
	var flags uint32
	if p.Degraded {
		flags |= partial2Degraded
	}
	if p.Sketch != nil {
		flags |= partial2HasSketch
		k = len(p.Sketch.Keys)
	}
	dst = AppendHeader(dst, MsgPartial2, compress.None, Partial2PayloadLen(len(p.Sum), k, p.Sketch != nil))
	dst = appendU32(dst, uint32(p.Round))
	dst = appendU32(dst, uint32(p.LeafID))
	dst = appendU32(dst, uint32(p.Count))
	dst = appendU32(dst, flags)
	dst = appendF64(dst, p.Weight)
	dst = appendF64(dst, p.ExpectWeight)
	dst = appendU32(dst, uint32(len(p.Sum)))
	dst = appendF64s(dst, p.Sum)
	if p.Sketch != nil {
		dst = appendU32(dst, uint32(p.Sketch.Cap))
		dst = appendU32(dst, uint32(p.Sketch.Rows))
		dst = appendU32(dst, uint32(k))
		for _, key := range p.Sketch.Keys {
			dst = appendU64(dst, key)
		}
		for _, row := range p.Sketch.Vals {
			dst = appendF64s(dst, row)
		}
	}
	return dst
}

// DecodePartial2 parses a MsgPartial2 payload. Structural checks only
// (exact size arithmetic, bounded allocation, panic guard); semantic
// validation — including the sketch's sorted-keys/finiteness/row-count
// invariants — is fl.ValidatePartial's job at the parent.
func DecodePartial2(payload []byte) (p fl.Partial, err error) {
	defer recoverDecode(&err)
	if len(payload) < partial2HeadLen {
		return fl.Partial{}, fmt.Errorf("%w: partial2 payload of %d bytes", ErrTruncated, len(payload))
	}
	p.Round = int(getU32(payload[0:]))
	p.LeafID = int(getU32(payload[4:]))
	p.Count = int(int32(getU32(payload[8:])))
	flags := getU32(payload[12:])
	p.Weight = getF64(payload[16:])
	p.ExpectWeight = getF64(payload[24:])
	p.Degraded = flags&partial2Degraded != 0
	hasSketch := flags&partial2HasSketch != 0
	n := int(getU32(payload[32:]))
	// Every parameter costs ≥ 8 payload bytes, so a declared count beyond
	// len/8 is a lie — reject before the size products below can overflow.
	if n > len(payload)/8 {
		return fl.Partial{}, fmt.Errorf("%w: partial2 declares %d params in %d bytes", ErrPayload, n, len(payload))
	}
	if !hasSketch {
		if len(payload) != Partial2PayloadLen(n, 0, false) {
			return fl.Partial{}, fmt.Errorf("%w: partial2 declares %d params in %d bytes, want %d",
				ErrPayload, n, len(payload), Partial2PayloadLen(n, 0, false))
		}
	}
	p.Sum = make([]float64, n)
	for i := range p.Sum {
		p.Sum[i] = getF64(payload[partial2HeadLen+8*i:])
	}
	if !hasSketch {
		return p, nil
	}
	body := payload[partial2HeadLen+8*n:]
	if len(body) < sketchHeadLen {
		return fl.Partial{}, fmt.Errorf("%w: partial2 sketch head of %d bytes", ErrTruncated, len(body))
	}
	sk := &robust.Sketch{
		Cap:  int(getU32(body[0:])),
		Rows: int(int32(getU32(body[4:]))),
	}
	k := int(getU32(body[8:]))
	if k > len(body)/8 {
		return fl.Partial{}, fmt.Errorf("%w: partial2 sketch declares %d rows in %d bytes", ErrPayload, k, len(body))
	}
	if len(payload) != Partial2PayloadLen(n, k, true) {
		return fl.Partial{}, fmt.Errorf("%w: partial2 sketch of %d×%d in %d bytes, want %d",
			ErrPayload, k, n, len(payload), Partial2PayloadLen(n, k, true))
	}
	body = body[sketchHeadLen:]
	sk.Keys = make([]uint64, k)
	for i := range sk.Keys {
		sk.Keys[i] = getU64(body[8*i:])
	}
	body = body[8*k:]
	sk.Vals = make([][]float64, k)
	for i := range sk.Vals {
		row := make([]float64, n)
		for j := range row {
			row[j] = getF64(body[8*(i*n+j):])
		}
		sk.Vals[i] = row
	}
	p.Sketch = sk
	return p, nil
}

// Round2 is the decoded form of a MsgRound2 broadcast: the MsgRound fields
// plus the root-coordinated shard-sampling directive and sketch capacity.
type Round2 struct {
	Round      int
	Durable    int
	SampleFrac float64
	SampleSeed int64
	SketchCap  int
	Params     []float64
}

// Round2PayloadLen returns the MsgRound2 payload size for n parameters.
func Round2PayloadLen(n int) int { return round2HeadLen + 8*n }

// AppendRound2Frame appends a complete MsgRound2 frame.
func AppendRound2Frame(dst []byte, r Round2) []byte {
	dst = AppendHeader(dst, MsgRound2, compress.None, Round2PayloadLen(len(r.Params)))
	dst = appendU32(dst, uint32(r.Round))
	dst = appendU32(dst, uint32(int32(r.Durable)))
	dst = appendF64(dst, r.SampleFrac)
	dst = appendU64(dst, uint64(r.SampleSeed))
	dst = appendU32(dst, uint32(r.SketchCap))
	dst = appendU32(dst, uint32(len(r.Params)))
	return appendF64s(dst, r.Params)
}

// DecodeRound2 parses a MsgRound2 payload.
func DecodeRound2(payload []byte) (r Round2, err error) {
	defer recoverDecode(&err)
	if len(payload) < round2HeadLen {
		return Round2{}, fmt.Errorf("%w: round2 payload of %d bytes", ErrTruncated, len(payload))
	}
	r.Round = int(getU32(payload[0:]))
	r.Durable = int(int32(getU32(payload[4:])))
	r.SampleFrac = getF64(payload[8:])
	r.SampleSeed = int64(getU64(payload[16:]))
	r.SketchCap = int(int32(getU32(payload[24:])))
	n := int(getU32(payload[28:]))
	if len(payload) != Round2PayloadLen(n) {
		return Round2{}, fmt.Errorf("%w: round2 declares %d params in %d bytes, want %d",
			ErrPayload, n, len(payload), Round2PayloadLen(n))
	}
	r.Params = make([]float64, n)
	for i := range r.Params {
		r.Params[i] = getF64(payload[round2HeadLen+8*i:])
	}
	return r, nil
}

// UpdatePayloadLen returns the update payload size for a dense length and
// a compressed body of k kept coordinates under mode (k is ignored by
// dense modes).
func UpdatePayloadLen(mode compress.Mode, denseLen, k int) int {
	n := updateHeadLen
	switch mode {
	case compress.None:
		n += 8 * denseLen
	case compress.TopK:
		n += 4 + 12*k
	case compress.Q8:
		n += 16 + denseLen
	case compress.Q16:
		n += 16 + 2*denseLen
	case compress.TopKQ8:
		n += 4 + 16 + 5*k
	case compress.TopKQ16:
		n += 4 + 16 + 6*k
	}
	return n
}

// AppendUpdateFrame appends a complete MsgUpdate frame. For mode None, u
// carries the raw dense parameters and d must be nil; for every other
// mode, d is the compressed delta (as produced by compress.Config
// under the same mode) and u contributes only ClientID, NumSamples, and
// TrainLoss.
func AppendUpdateFrame(dst []byte, u fl.Update, d *compress.Delta, mode compress.Mode) ([]byte, error) {
	var denseLen, k int
	if mode == compress.None {
		if d != nil {
			return nil, fmt.Errorf("wire: mode none takes no delta")
		}
		denseLen = len(u.Params)
	} else {
		if d == nil {
			return nil, fmt.Errorf("wire: mode %s requires a delta", mode)
		}
		if d.Bits != mode.Bits() || (d.Indices == nil) == mode.Sparse() {
			return nil, fmt.Errorf("wire: delta shape does not match mode %s", mode)
		}
		denseLen = d.Len
		k = len(d.Indices)
	}
	dst = AppendHeader(dst, MsgUpdate, mode, UpdatePayloadLen(mode, denseLen, k))
	dst = appendU32(dst, uint32(u.ClientID))
	dst = appendU32(dst, uint32(u.NumSamples))
	dst = appendF64(dst, u.TrainLoss)
	dst = appendU32(dst, uint32(denseLen))
	if mode == compress.None {
		return appendF64s(dst, u.Params), nil
	}
	if mode.Sparse() {
		dst = appendU32(dst, uint32(k))
	}
	if mode.Bits() > 0 {
		dst = appendF64(dst, d.Min)
		dst = appendF64(dst, d.Max)
	}
	for _, i := range d.Indices {
		dst = appendU32(dst, uint32(i))
	}
	switch mode.Bits() {
	case 0:
		dst = appendF64s(dst, d.Values)
	case 8:
		for _, c := range d.Codes {
			dst = append(dst, byte(c))
		}
	case 16:
		for _, c := range d.Codes {
			var b [2]byte
			binary.LittleEndian.PutUint16(b[:], c)
			dst = append(dst, b[:]...)
		}
	}
	return dst, nil
}

// DecodeUpdate parses a MsgUpdate payload under the frame's compression
// mode. Mode None yields a canonical dense raw update; compressed modes
// yield sparse/delta updates (Update.Sparse() true) that the caller must
// run through fl.Densify against the broadcast global — which also
// performs the semantic index validation (range, order, duplicates) this
// structural decode leaves to it. DenseLen is the client's CLAIM about
// the model size; nothing is allocated from it, and fl.Densify checks it
// against the real model.
func DecodeUpdate(mode compress.Mode, payload []byte) (u fl.Update, err error) {
	defer recoverDecode(&err)
	if !mode.Valid() {
		return fl.Update{}, fmt.Errorf("%w: compression mode %d", ErrPayload, mode)
	}
	if len(payload) < updateHeadLen {
		return fl.Update{}, fmt.Errorf("%w: update payload of %d bytes", ErrTruncated, len(payload))
	}
	u.ClientID = int(getU32(payload[0:]))
	u.NumSamples = int(int32(getU32(payload[4:])))
	u.TrainLoss = getF64(payload[8:])
	denseLen := int(getU32(payload[16:]))
	body := payload[updateHeadLen:]

	if mode == compress.None {
		if len(body) != 8*denseLen {
			return fl.Update{}, fmt.Errorf("%w: dense body of %d bytes for %d params",
				ErrPayload, len(body), denseLen)
		}
		u.Params = make([]float64, denseLen)
		for i := range u.Params {
			u.Params[i] = getF64(body[8*i:])
		}
		return u, nil
	}

	u.DenseLen = denseLen
	u.IsDelta = true
	k := denseLen // dense quantized modes carry denseLen values
	if mode.Sparse() {
		if len(body) < 4 {
			return fl.Update{}, fmt.Errorf("%w: sparse body of %d bytes", ErrTruncated, len(body))
		}
		k = int(getU32(body))
		body = body[4:]
	}
	// Exact-size check before any allocation: k and denseLen are
	// attacker-controlled, but from here on every allocation is bounded
	// by the (budget-checked) payload length itself.
	want := UpdatePayloadLen(mode, denseLen, k) - updateHeadLen
	if mode.Sparse() {
		want -= 4
	}
	if len(body) != want {
		return fl.Update{}, fmt.Errorf("%w: %s body of %d bytes, want %d (k=%d, dense=%d)",
			ErrPayload, mode, len(body), want, k, denseLen)
	}
	var min, max float64
	if mode.Bits() > 0 {
		min, max = getF64(body[0:]), getF64(body[8:])
		body = body[16:]
	}
	if mode.Sparse() {
		u.Indices = make([]int, k)
		for j := range u.Indices {
			u.Indices[j] = int(getU32(body[4*j:]))
		}
		body = body[4*k:]
	}
	switch mode.Bits() {
	case 0:
		u.Params = make([]float64, k)
		for j := range u.Params {
			u.Params[j] = getF64(body[8*j:])
		}
	case 8:
		codes := make([]uint16, k)
		for j := range codes {
			codes[j] = uint16(body[j])
		}
		u.Params = dequantize(codes, min, max, 8)
	case 16:
		codes := make([]uint16, k)
		for j := range codes {
			codes[j] = binary.LittleEndian.Uint16(body[2*j:])
		}
		u.Params = dequantize(codes, min, max, 16)
	}
	return u, nil
}

// dequantize expands quantized codes through the compress package's
// affine decode, so wire and in-process reconstructions are bit-identical.
func dequantize(codes []uint16, min, max float64, bits int) []float64 {
	z := compress.Quantized{Codes: codes, Min: min, Max: max, Bits: bits, N: len(codes)}
	return z.Decode()
}

// recoverDecode converts a decoder panic into an error, mirroring the
// checkpoint container's guard: a parser bug on attacker-controlled bytes
// must cost one connection, not the coordinator process.
func recoverDecode(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: decoder panic: %v", ErrPayload, r)
	}
}
