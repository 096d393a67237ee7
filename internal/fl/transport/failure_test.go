package transport

import (
	"bufio"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/wire"
	"github.com/cip-fl/cip/internal/telemetry"
)

// dialRaw opens a hand-driven frame connection to addr: it sends h and
// reads the welcome, returning the reader positioned at the first round
// frame.
func dialRaw(t *testing.T, addr string, h wire.Hello) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire.AppendHelloFrame(nil, h)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if _, err := readHandshake(br, wire.MsgWelcome, wire.DecodeWelcome); err != nil {
		t.Fatal(err)
	}
	return conn, br
}

// readRoundFrame reads and releases one MsgRound frame.
func readRoundFrame(t *testing.T, r io.Reader) {
	t.Helper()
	f, err := wire.ReadFrame(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	if f.Type != wire.MsgRound {
		t.Fatalf("got frame type %d, want a round frame", f.Type)
	}
}

// TestCoordinatorClientDisconnect: a client that vanishes mid-round must
// surface as an error from the coordinator, not a hang.
func TestCoordinatorClientDisconnect(t *testing.T) {
	coord := &Coordinator{NumClients: 1, Rounds: 3, Initial: []float64{1, 2}}
	addrCh := make(chan string, 1)
	var (
		srvErr error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = coord.ListenAndRun("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	// Read the welcome and first round frame, then drop the connection.
	conn, br := dialRaw(t, addr, wire.Hello{ID: 0, NumSamples: 5})
	readRoundFrame(t, br)
	conn.Close()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator hung after client disconnect")
	}
	if srvErr == nil {
		t.Fatal("coordinator should report an error after client disconnect")
	}
}

// TestCoordinatorRejectsGarbageHello: a connection speaking a different
// protocol must not wedge the handshake.
func TestCoordinatorRejectsGarbageHello(t *testing.T) {
	coord := &Coordinator{NumClients: 1, Rounds: 1, Initial: []float64{1}}
	addrCh := make(chan string, 1)
	var (
		srvErr error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = coord.ListenAndRun("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator hung on garbage hello")
	}
	if srvErr == nil {
		t.Fatal("coordinator should reject a malformed hello")
	}
}

// TestCoordinatorRejectsBadHello sends each out-of-range hello over
// net.Pipe to a fault-tolerant coordinator. The hello decoder must reject
// it, the coordinator must close that peer without a welcome, and the
// federation must go on with the honest clients.
func TestCoordinatorRejectsBadHello(t *testing.T) {
	cases := []struct {
		name string
		h    wire.Hello
	}{
		{"negative-id", wire.Hello{ID: -1, NumSamples: 5}},
		{"negative-samples", wire.Hello{ID: 7, NumSamples: -5}},
		{"long-token", wire.Hello{ID: 7, NumSamples: 5, Token: strings.Repeat("a", wire.MaxTokenLen+1)}},
		{"unknown-mode", wire.Hello{ID: 7, NumSamples: 5, Compress: compress.Mode(99)}},
		{"nan-topk", wire.Hello{ID: 7, NumSamples: 5, Compress: compress.TopK, TopKFrac: math.NaN()}},
		{"inf-topk", wire.Hello{ID: 7, NumSamples: 5, Compress: compress.TopK, TopKFrac: math.Inf(1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			met := NewMetrics(telemetry.NewRegistry())
			coord := &Coordinator{
				NumClients: 2, Rounds: 2, Initial: []float64{1},
				MinQuorum: 1, Metrics: met,
			}
			ln := newPipeListener()
			done := make(chan error, 1)
			go func() {
				_, err := coord.RunWithListener(ln, nil)
				done <- err
			}()
			defer ln.Close()

			bad, err := ln.Dial("")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bad.Write(wire.AppendHelloFrame(nil, tc.h)); err != nil {
				t.Fatal(err)
			}
			if _, err := bad.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
				t.Fatalf("bad peer read %v, want EOF (closed without a welcome)", err)
			}
			bad.Close()

			var wg sync.WaitGroup
			clientErrs := make([]error, 2)
			for i := range clientErrs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					clientErrs[i] = RunClientRetry("pipe", &echoClient{id: i}, RetryConfig{Dial: ln.Dial})
				}(i)
			}
			wg.Wait()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("coordinator should drop only the bad peer: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("coordinator hung after a bad hello")
			}
			for i, err := range clientErrs {
				if err != nil {
					t.Fatalf("honest client %d: %v", i, err)
				}
			}
			if got := met.DecodeFailures.Value(); got != 1 {
				t.Fatalf("decode failures = %d, want 1 (the bad hello)", got)
			}
			if got := met.ConnsAccepted.Value(); got != 2 {
				t.Fatalf("accepted %d connections, want the 2 honest clients", got)
			}
		})
	}
}

// TestDeprecatedCodecAcceptsOnlyBinary: the deprecated Codec fields take
// "" or "binary"; anything else fails before any connection is made.
func TestDeprecatedCodecAcceptsOnlyBinary(t *testing.T) {
	ln := newPipeListener()
	defer ln.Close()
	coord := &Coordinator{NumClients: 1, Rounds: 1, Initial: []float64{1}, Codec: "gob"}
	if _, err := coord.RunWithListener(ln, nil); err == nil {
		t.Fatal("coordinator accepted Codec \"gob\"")
	}
	leaf := &Leaf{Local: Coordinator{NumClients: 1, Initial: []float64{1}}, Retry: RetryConfig{Codec: "gob"}}
	if _, err := leaf.RunWithListener(ln, nil); err == nil {
		t.Fatal("leaf accepted Retry.Codec \"gob\"")
	}
	dialed := false
	err := RunClientRetry("pipe", &echoClient{}, RetryConfig{Codec: "gob", Dial: func(string) (net.Conn, error) {
		dialed = true
		return nil, errors.New("unreachable")
	}})
	if err == nil || dialed {
		t.Fatalf("client with Codec \"gob\": err = %v, dialed = %v; want an error before dialing", err, dialed)
	}
}

// failingClient errors on its first local-training call.
type failingClient struct{ id int }

func (c *failingClient) ID() int         { return c.id }
func (c *failingClient) NumSamples() int { return 1 }
func (c *failingClient) TrainLocal(int, []float64) (fl.Update, error) {
	return fl.Update{}, errTrain
}

var errTrain = &trainError{}

type trainError struct{}

func (*trainError) Error() string { return "train failed" }

// TestRunClientPropagatesTrainError: a client whose local training fails
// must return the error to its operator (and the coordinator sees the
// closed stream).
func TestRunClientPropagatesTrainError(t *testing.T) {
	coord := &Coordinator{NumClients: 1, Rounds: 2, Initial: []float64{0}}
	addrCh := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		coord.ListenAndRun("127.0.0.1:0", func(a string) { addrCh <- a }) //nolint:errcheck
	}()
	addr := <-addrCh

	err := RunClient(addr, &failingClient{id: 0})
	if err == nil {
		t.Fatal("RunClient should propagate the training error")
	}
	wg.Wait()
}
