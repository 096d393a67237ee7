package wire

import (
	"fmt"
	"math"

	"github.com/cip-fl/cip/internal/fl/compress"
)

// Handshake payloads (little-endian throughout, frame mode always None).
//
// Hello (MsgHello) — the first frame on every connection:
//
//	id         int32
//	numSamples int32
//	flags      uint32  (bit0 = partial: the peer is a child aggregator)
//	compress   uint32  (offered compress.Mode; 0 sends dense updates)
//	topKFrac   float64 (offered top-k fraction; 0 means the default)
//	tokenLen   uint32
//	token      tokenLen bytes
//
// Welcome (MsgWelcome) — the coordinator's answer to a valid hello:
//
//	nextRound  int32
//	flags      uint32  (bit0 = resumed, bit1 = partial confirmed)
//	compress   uint32  (accepted compress.Mode)
//	topKFrac   float64
//	tokenLen   uint32
//	token      tokenLen bytes
//
// Unlike the round and update decoders, which leave semantic checks to
// their callers, DecodeHello and DecodeWelcome reject out-of-range fields
// themselves (ErrHandshake): a hello is the first thing an unauthenticated
// peer sends, and nothing in it is checked again later.

// MaxTokenLen bounds a session token on the wire. Coordinators mint 32
// hex characters.
const MaxTokenLen = 64

const (
	helloHeadLen   = 28
	welcomeHeadLen = 24

	helloPartial   = 1 << 0
	welcomeResumed = 1 << 0
	welcomePartial = 1 << 1
)

// Hello is a peer's opening frame.
type Hello struct {
	// ID is the peer's client ID (its leaf ID for a child aggregator).
	ID int
	// NumSamples is the peer's FedAvg weight; 0 falls back to weight 1.
	NumSamples int
	// Token is the session token from a previous connection; empty on a
	// peer's first contact. A coordinator resumed from a snapshot uses it
	// to recognize returning participants.
	Token string
	// Partial marks a child aggregator: it answers each MsgRound2 with a
	// MsgPartial2 instead of a MsgUpdate.
	Partial bool
	// Compress and TopKFrac offer an update-compression mode.
	Compress compress.Mode
	TopKFrac float64
}

// Welcome is the coordinator's answer to a valid hello.
type Welcome struct {
	// Token identifies the federation session across coordinator
	// restarts; empty when the coordinator is not checkpointing.
	Token string
	// NextRound is the first round the coordinator will run with this
	// peer: 0 on a fresh federation, the resume round after a restart.
	NextRound int
	// Resumed reports whether the coordinator restored from a snapshot.
	Resumed bool
	// Partial confirms the peer's partial offer: this coordinator is a
	// tree parent that reads MsgPartial2 answers.
	Partial bool
	// Compress and TopKFrac echo the accepted compression config.
	Compress compress.Mode
	TopKFrac float64
}

// AppendHelloFrame appends a complete MsgHello frame. It encodes h as
// given; DecodeHello does the range checks.
func AppendHelloFrame(dst []byte, h Hello) []byte {
	var flags uint32
	if h.Partial {
		flags |= helloPartial
	}
	dst = AppendHeader(dst, MsgHello, compress.None, helloHeadLen+len(h.Token))
	dst = appendU32(dst, uint32(int32(h.ID)))
	dst = appendU32(dst, uint32(int32(h.NumSamples)))
	dst = appendU32(dst, flags)
	dst = appendU32(dst, uint32(h.Compress))
	dst = appendF64(dst, h.TopKFrac)
	dst = appendU32(dst, uint32(len(h.Token)))
	return append(dst, h.Token...)
}

// DecodeHello parses and range-checks a MsgHello payload: a negative ID
// or sample count, an unknown flag or compression mode, a non-finite
// top-k fraction and an over-long token are all a bad hello.
func DecodeHello(payload []byte) (h Hello, err error) {
	defer recoverDecode(&err)
	if len(payload) < helloHeadLen {
		return Hello{}, fmt.Errorf("%w: hello payload of %d bytes", ErrTruncated, len(payload))
	}
	h.ID = int(int32(getU32(payload[0:])))
	h.NumSamples = int(int32(getU32(payload[4:])))
	flags := getU32(payload[8:])
	mode := getU32(payload[12:])
	h.TopKFrac = getF64(payload[16:])
	if h.Token, err = decodeToken(payload[24:], "hello"); err != nil {
		return Hello{}, err
	}
	switch {
	case h.ID < 0:
		return Hello{}, fmt.Errorf("%w: hello ID %d is negative", ErrHandshake, h.ID)
	case h.NumSamples < 0:
		return Hello{}, fmt.Errorf("%w: hello sample count %d is negative", ErrHandshake, h.NumSamples)
	case flags&^helloPartial != 0:
		return Hello{}, fmt.Errorf("%w: hello flags %#x", ErrHandshake, flags)
	}
	h.Partial = flags&helloPartial != 0
	h.Compress, err = decodeMode(mode, h.TopKFrac, "hello")
	return h, err
}

// AppendWelcomeFrame appends a complete MsgWelcome frame.
func AppendWelcomeFrame(dst []byte, w Welcome) []byte {
	var flags uint32
	if w.Resumed {
		flags |= welcomeResumed
	}
	if w.Partial {
		flags |= welcomePartial
	}
	dst = AppendHeader(dst, MsgWelcome, compress.None, welcomeHeadLen+len(w.Token))
	dst = appendU32(dst, uint32(int32(w.NextRound)))
	dst = appendU32(dst, flags)
	dst = appendU32(dst, uint32(w.Compress))
	dst = appendF64(dst, w.TopKFrac)
	dst = appendU32(dst, uint32(len(w.Token)))
	return append(dst, w.Token...)
}

// DecodeWelcome parses and range-checks a MsgWelcome payload with the
// same rules as DecodeHello, plus a non-negative NextRound.
func DecodeWelcome(payload []byte) (w Welcome, err error) {
	defer recoverDecode(&err)
	if len(payload) < welcomeHeadLen {
		return Welcome{}, fmt.Errorf("%w: welcome payload of %d bytes", ErrTruncated, len(payload))
	}
	w.NextRound = int(int32(getU32(payload[0:])))
	flags := getU32(payload[4:])
	mode := getU32(payload[8:])
	w.TopKFrac = getF64(payload[12:])
	if w.Token, err = decodeToken(payload[20:], "welcome"); err != nil {
		return Welcome{}, err
	}
	switch {
	case w.NextRound < 0:
		return Welcome{}, fmt.Errorf("%w: welcome round %d is negative", ErrHandshake, w.NextRound)
	case flags&^(welcomeResumed|welcomePartial) != 0:
		return Welcome{}, fmt.Errorf("%w: welcome flags %#x", ErrHandshake, flags)
	}
	w.Resumed = flags&welcomeResumed != 0
	w.Partial = flags&welcomePartial != 0
	w.Compress, err = decodeMode(mode, w.TopKFrac, "welcome")
	return w, err
}

// decodeToken reads the length-prefixed token that ends both handshake
// payloads; b starts at the length field.
func decodeToken(b []byte, what string) (string, error) {
	n := getU32(b)
	if n > MaxTokenLen {
		return "", fmt.Errorf("%w: %s token of %d bytes, limit %d", ErrHandshake, what, n, MaxTokenLen)
	}
	if len(b) != 4+int(n) {
		return "", fmt.Errorf("%w: %s declares a %d-byte token in %d bytes", ErrPayload, what, n, len(b)-4)
	}
	return string(b[4:]), nil
}

func decodeMode(mode uint32, topKFrac float64, what string) (compress.Mode, error) {
	if mode > math.MaxUint8 || !compress.Mode(mode).Valid() {
		return 0, fmt.Errorf("%w: %s compression mode %d", ErrHandshake, what, mode)
	}
	if math.IsNaN(topKFrac) || math.IsInf(topKFrac, 0) {
		return 0, fmt.Errorf("%w: %s top-k fraction %v", ErrHandshake, what, topKFrac)
	}
	return compress.Mode(mode), nil
}
