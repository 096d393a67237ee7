// Package wire is the federation's TCP protocol: length-prefixed,
// versioned, little-endian frames carrying everything from the handshake
// to the final done, with zero reflection on the hot path.
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	0       1     magic 0xCF
//	1       1     version (currently 1)
//	2       1     frame type (1=round, 2=update, 3=done, 5=partial2,
//	              6=round2, 7=hello, 8=welcome; 4 is reserved)
//	3       1     compression mode (compress.Mode; 0 except on updates)
//	4       4     payload length, uint32
//	8       n     payload
//
// Payloads (see codec.go) are fixed arithmetic over the header fields:
// every length is validated against the declared payload size BEFORE any
// allocation, the whole decode path is bounded by the caller's byte
// budget, and — like the checkpoint container decoder — DecodeFrame
// converts any latent panic into an error, because these bytes arrive
// from the least-trusted peer in the system.
//
// Payload buffers come from a power-of-two pooled arena (buffer.go, the
// PR 3 scratch-arena pattern applied to bytes) so steady-state rounds
// allocate nothing per update.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/cip-fl/cip/internal/fl/compress"
)

const (
	// Magic is the first byte of every frame.
	Magic = 0xCF
	// Version is the codec version this package speaks. Decoders reject
	// other versions.
	Version = 1
	// HeaderLen is the fixed frame-header size.
	HeaderLen = 8
)

// Frame types.
const (
	// MsgRound carries the broadcast global parameters for one round.
	MsgRound = 1
	// MsgUpdate carries one client's (possibly compressed) update.
	MsgUpdate = 2
	// MsgDone tells a client the federation is complete.
	MsgDone = 3
	// MsgPartial is reserved: it named the retired sketchless partial
	// frame. ReadFrame rejects it, and new types must not reuse it.
	MsgPartial = 4
	// MsgPartial2 carries one child aggregator's round contribution:
	// pre-division weighted sums, coverage metadata (expected weight,
	// degraded flag) and an optional mergeable row sketch.
	MsgPartial2 = 5
	// MsgRound2 is the round broadcast a tree parent sends its child
	// aggregators: MsgRound plus the root-coordinated sample
	// fraction/seed and the sketch capacity the subtree should build at.
	MsgRound2 = 6
	// MsgHello opens every connection: the peer's identity and offers.
	MsgHello = 7
	// MsgWelcome is the coordinator's answer to a valid hello.
	MsgWelcome = 8
)

// CodecBinary names this package's frame protocol, the only one the
// transport speaks.
const CodecBinary = "binary"

// Errors the decode path classifies. All are terminal for the connection;
// match with errors.Is.
var (
	// ErrMagic means the stream is not positioned at a frame.
	ErrMagic = errors.New("wire: bad magic byte")
	// ErrVersion means the peer speaks a codec version we do not.
	ErrVersion = errors.New("wire: unsupported codec version")
	// ErrFrameType means an unknown frame type.
	ErrFrameType = errors.New("wire: unknown frame type")
	// ErrBudget means a declared payload exceeds the receive byte budget.
	ErrBudget = errors.New("wire: frame exceeds byte budget")
	// ErrTruncated means a payload is shorter than its fields require.
	ErrTruncated = errors.New("wire: truncated payload")
	// ErrPayload means a payload's internal lengths are inconsistent.
	ErrPayload = errors.New("wire: malformed payload")
	// ErrHandshake means a hello or welcome carries an out-of-range field.
	ErrHandshake = errors.New("wire: bad handshake")
)

// Frame is one decoded frame header plus its raw payload. Payload storage
// is pooled: call Release when done with it.
type Frame struct {
	Type    byte
	Mode    compress.Mode
	Payload []byte
}

// Release returns the frame's payload buffer to the arena. The payload
// (and anything aliasing it) must not be touched afterwards.
func (f *Frame) Release() {
	PutBuffer(f.Payload)
	f.Payload = nil
}

// ReadFrame reads one frame from r. The declared payload length is
// checked against budget (≤ 0 means no limit) before any allocation, so
// a hostile 4 GiB length prefix costs nothing. The returned payload is
// pooled; pair with Frame.Release.
func ReadFrame(r io.Reader, budget int) (Frame, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	if hdr[0] != Magic {
		return Frame{}, fmt.Errorf("%w: 0x%02x", ErrMagic, hdr[0])
	}
	if hdr[1] != Version {
		return Frame{}, fmt.Errorf("%w: %d (speaking %d)", ErrVersion, hdr[1], Version)
	}
	typ := hdr[2]
	switch typ {
	case MsgRound, MsgUpdate, MsgDone, MsgPartial2, MsgRound2, MsgHello, MsgWelcome:
	default:
		return Frame{}, fmt.Errorf("%w: %d", ErrFrameType, typ)
	}
	mode := compress.Mode(hdr[3])
	if !mode.Valid() {
		return Frame{}, fmt.Errorf("%w: compression mode %d", ErrPayload, hdr[3])
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if budget > 0 && n > uint32(budget) {
		return Frame{}, fmt.Errorf("%w: payload of %d bytes, budget %d", ErrBudget, n, budget)
	}
	payload := GetBuffer(int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		PutBuffer(payload)
		return Frame{}, err
	}
	return Frame{Type: typ, Mode: mode, Payload: payload}, nil
}

// AppendHeader appends a frame header to dst and returns the extended
// slice. The payload of length n must follow.
func AppendHeader(dst []byte, typ byte, mode compress.Mode, n int) []byte {
	var hdr [HeaderLen]byte
	hdr[0] = Magic
	hdr[1] = Version
	hdr[2] = typ
	hdr[3] = byte(mode)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(n))
	return append(dst, hdr[:]...)
}

// WriteFrame writes one complete frame (header + payload) to w.
func WriteFrame(w io.Writer, typ byte, mode compress.Mode, payload []byte) error {
	buf := GetBuffer(0)[:0]
	buf = AppendHeader(buf, typ, mode, len(payload))
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	PutBuffer(buf)
	return err
}
