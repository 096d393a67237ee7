package wire

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/cip-fl/cip/internal/fl/compress"
)

func TestHandshakeFrameRoundTrip(t *testing.T) {
	h := Hello{ID: 3, NumSamples: 0, Token: goldenToken, Partial: true, Compress: compress.Q16, TopKFrac: 0.5}
	f, err := ReadFrame(bytes.NewReader(AppendHelloFrame(nil, h)), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHello(f.Payload)
	f.Release()
	if err != nil || got != h {
		t.Fatalf("hello round trip = %+v, %v; want %+v", got, err, h)
	}

	w := Welcome{Token: goldenToken, NextRound: 9, Resumed: true, Partial: true, Compress: compress.TopK, TopKFrac: 0.01}
	f, err = ReadFrame(bytes.NewReader(AppendWelcomeFrame(nil, w)), 0)
	if err != nil {
		t.Fatal(err)
	}
	gotW, err := DecodeWelcome(f.Payload)
	f.Release()
	if err != nil || gotW != w {
		t.Fatalf("welcome round trip = %+v, %v; want %+v", gotW, err, w)
	}
}

// TestDecodeWelcomeRejects covers the welcome's range checks; the hello's
// run end to end in the transport package's bad-hello test.
func TestDecodeWelcomeRejects(t *testing.T) {
	for name, w := range map[string]Welcome{
		"negative-round": {NextRound: -1},
		"long-token":     {Token: strings.Repeat("x", MaxTokenLen+1)},
		"unknown-mode":   {Compress: compress.Mode(200)},
		"nan-topk":       {TopKFrac: math.NaN()},
	} {
		frame := AppendWelcomeFrame(nil, w)
		if _, err := DecodeWelcome(frame[HeaderLen:]); !errors.Is(err, ErrHandshake) {
			t.Errorf("%s: err = %v, want ErrHandshake", name, err)
		}
	}
	frame := AppendWelcomeFrame(nil, Welcome{Token: "abc"})
	if _, err := DecodeWelcome(frame[HeaderLen : len(frame)-1]); !errors.Is(err, ErrPayload) {
		t.Errorf("truncated token: err = %v, want ErrPayload", err)
	}
}
