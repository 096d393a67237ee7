// Package transport runs the FedAvg protocol of internal/fl over TCP, so
// clients and the aggregation server can live in separate processes (or
// machines). The in-process engine remains the default for experiments;
// this package demonstrates and tests the distributed deployment path on
// the loopback interface.
//
// Protocol (synchronous, one stream per client, internal/fl/wire frames
// from hello to done):
//
//	client → server: MsgHello{ID, NumSamples, Token, Compress, TopKFrac}
//	server → client: MsgWelcome{Token, NextRound, Resumed, Compress, TopKFrac}
//	repeat for each round:
//	    server → client: MsgRound
//	    client → server: MsgUpdate (possibly a top-k/quantized delta)
//	server → client: MsgDone
//
// Child aggregators of a tree set Partial in the hello and exchange
// MsgRound2 and MsgPartial2 instead (see Leaf). The welcome echoes the
// compression offer the coordinator accepted. Compressed updates are
// deltas against the broadcast global with client-side error feedback:
// the client accumulates what each lossy round dropped and folds it into
// the next round's delta, so the federation converges to the dense
// behavior; the residual rides in the rollback captures, keeping
// kill→restart→resume bit-identical under compression.
//
// Restart recovery. A coordinator given a checkpoint.Manager mints a
// session token, writes durable snapshots at the configured cadence, and
// announces the last durable round in every round message. Clients retain
// an in-memory capture of their local state for every round the server has
// not yet made durable. When the coordinator process dies and restarts
// from its snapshot, reconnecting clients present the session token, learn
// the resume round from the welcome, roll their local state back to the
// matching capture, and the federation continues bit-identically to an
// uninterrupted run. RunClientRetry rides out the outage with its existing
// backoff.
//
// Fault tolerance. With MinQuorum left at zero the coordinator is
// fail-stop: the first client error aborts the federation (the legacy
// behavior). Setting MinQuorum > 0 turns on quorum-based partial
// aggregation: clients that miss the RoundTimeout deadline, drop their
// connection, or send invalid updates (NaN/Inf/size mismatch) are removed
// from the roster and the round aggregates over the survivors, erroring
// only when fewer than MinQuorum valid updates remain. AcceptWindow bounds
// the initial roster wait so a federation can start with a partial roster
// of at least MinQuorum clients. Every inbound frame is byte-bounded
// (hellos by a fixed 4 KiB, updates against the expected model size), so
// a misbehaving peer cannot make the coordinator allocate unbounded
// memory.
package transport

import (
	"bufio"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/robust"
	"github.com/cip-fl/cip/internal/fl/wire"
	"github.com/cip-fl/cip/internal/rng"
	"github.com/cip-fl/cip/internal/telemetry"
)

// maxHelloBytes bounds a handshake frame (header included); a hello is a
// few fields and a ≤64-byte token, so 4 KiB is generous.
const maxHelloBytes = 4 << 10

// errMsgTooLarge is surfaced by budgetReader when a peer's message exceeds
// the size bound derived from the model.
var errMsgTooLarge = errors.New("transport: message exceeds size bound")

// budgetReader enforces a per-message byte allowance on a frame stream:
// the coordinator refreshes the allowance before each expected frame, so
// a misbehaving peer cannot stream an arbitrarily large value into the
// decoder. The optional bytes counter feeds transport_decode_bytes_total.
type budgetReader struct {
	r     io.Reader
	n     int64
	bytes *telemetry.Counter
	// tally, when non-nil, accumulates received bytes atomically for the
	// coordinator's per-round byte accounting (independent of telemetry).
	tally *uint64
}

func (b *budgetReader) allow(n int64) { b.n = n }

func (b *budgetReader) Read(p []byte) (int, error) {
	if b.n <= 0 {
		return 0, errMsgTooLarge
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := b.r.Read(p)
	b.n -= int64(n)
	b.bytes.Add(uint64(n))
	if b.tally != nil {
		atomic.AddUint64(b.tally, uint64(n))
	}
	return n, err
}

// countWriter mirrors budgetReader on the outbound side: every byte the
// coordinator sends a client is counted into telemetry and the per-round
// tally.
type countWriter struct {
	w     io.Writer
	bytes *telemetry.Counter
	tally *uint64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.bytes.Add(uint64(n))
	if c.tally != nil {
		atomic.AddUint64(c.tally, uint64(n))
	}
	return n, err
}

// Coordinator is the server side of the wire protocol.
type Coordinator struct {
	// NumClients is how many client connections to wait for before round 0.
	NumClients int
	// Rounds is the number of communication rounds to run.
	Rounds int
	// Initial is the initial global parameter vector.
	Initial []float64
	// Observers receive the same per-round view as in-process observers;
	// observers implementing fl.FailureObserver are additionally told which
	// clients were dropped each round.
	Observers []fl.RoundObserver

	// MinQuorum, when > 0, enables fault-tolerant rounds: it is the
	// minimum number of connected clients needed to start and the minimum
	// number of valid updates a round must produce. 0 keeps the legacy
	// fail-stop behavior (all NumClients must stay healthy).
	MinQuorum int
	// RoundTimeout bounds each client's per-round exchange — sending the
	// global parameters, local training, and receiving the update — via
	// connection read/write deadlines. 0 disables deadlines. Stragglers
	// that miss the deadline are dropped from the roster (fault-tolerant
	// mode) or abort the federation (fail-stop mode).
	RoundTimeout time.Duration
	// AcceptWindow, when > 0, bounds how long ListenAndRun waits for the
	// full NumClients roster; when the window closes the federation starts
	// anyway as long as at least MinQuorum clients are connected.
	AcceptWindow time.Duration
	// MaxUpdateBytes bounds the encoded size of one client update; 0
	// derives a generous bound from len(Initial).
	MaxUpdateBytes int64
	// Codec is accepted for compatibility and must be "" or "binary";
	// any other value fails at start.
	//
	// Deprecated: the wire frame is the only protocol.
	Codec string
	// MaxUpdateNorm, when > 0, rejects updates whose L2 norm exceeds it
	// (counted as validation rejections). 0 disables the bound.
	MaxUpdateNorm float64
	// Robust, when non-nil, replaces the sample-weighted FedAvg mean with
	// a Byzantine-resilient rule (internal/fl/robust). When the rule
	// trims, the post-trim contributor count is checked against MinQuorum
	// (fl.ErrQuorumAfterTrim).
	Robust robust.Aggregator
	// Reputation, when non-nil, scores per-client anomaly evidence and
	// enforces quarantine on the wire: quarantined clients receive no
	// round message (their connection stays open, so a later probation
	// re-admits them) and contribute nothing to the aggregate. The
	// tracker's state is persisted in the coordinator snapshot, so a
	// restart does not amnesty an attacker.
	Reputation *robust.Reputation

	// MaxInflightUpdates bounds how many client exchanges the streaming
	// fold admits at once (0 means 64). Each admitted exchange holds at
	// most one decoded update, so peak aggregator memory is
	// ~MaxInflightUpdates × 8·params regardless of roster size. Rosters
	// no larger than the window behave exactly like the buffered path:
	// every client exchanges concurrently and updates fold in client-ID
	// order.
	MaxInflightUpdates int
	// BufferRounds forces the legacy buffered round path (materialize
	// every update, then aggregate) even for configurations the streaming
	// fold could serve. The scale harness uses it as its baseline.
	BufferRounds bool
	// MaxBufferedUpdates caps the cohort size a buffered round may
	// materialize (0 = unlimited). Median/TrimmedMean, observers, and
	// reputation genuinely need the full update column, so their memory
	// is inherently O(cohort × params); the cap turns a silent OOM into
	// an explicit configuration error.
	MaxBufferedUpdates int
	// SampleFraction, when in (0, 1), samples a per-round cohort of
	// ~fraction × roster from the registered population: weighted without
	// replacement by each client's NumSamples, deterministic given
	// (SampleSeed, round), never below the quorum. Unsampled clients
	// simply receive no round frame and stay blocked on their next read.
	SampleFraction float64
	// SampleSeed seeds the cohort sampler; the per-round stream is
	// derived statelessly from (SampleSeed, round), so a restarted
	// coordinator resumes the same cohort schedule.
	SampleSeed int64
	// AcceptPartials runs the coordinator as an aggregation-tree parent:
	// every roster connection must be a child aggregator (hello with
	// Partial), each round reads one partial per child, and the global
	// advances by the weighted mean of the children's pre-division sums —
	// or, when Robust is set, by the robust rule evaluated over the
	// children's merged row sketches. Requires no observers, reputation,
	// or forced buffering. Children may themselves be AcceptPartials
	// coordinators (interior nodes), making the tree arbitrary-depth.
	AcceptPartials bool
	// CoverageFloor, when in (0, 1], aborts a round whose coverage — the
	// fraction of the planned cohort weight that actually reached the
	// aggregate — falls below it. Degraded subtrees and lost shards pull
	// coverage down; the floor turns "quietly aggregate whatever arrived"
	// into an explicit operator policy. 0 accepts any covered fraction
	// that satisfies MinQuorum.
	CoverageFloor float64
	// TreeSketchCap is the per-subtree row-reservoir capacity (K) for
	// robust tree aggregation: child aggregators retain at most K client
	// rows each round and the root evaluates Robust over the merged
	// reservoir. ≤ 0 defaults to 64 when AcceptPartials && Robust != nil.
	// Results are exact below K total rows and within the documented DKW
	// rank bound above it (robust.SampleRankError).
	TreeSketchCap int
	// AcceptRejoins keeps the listener accepting after the federation
	// starts: newcomers are handshaked, parked, and admitted into the
	// roster at the next round boundary (replacing any dead same-ID
	// entry). This is how a killed-and-restarted leaf re-enters a running
	// tree.
	AcceptRejoins bool
	// ReadBufSize is the per-connection buffered-reader size in bytes (0
	// means bufio's default 4 KiB). Load harnesses with 10⁵ in-process
	// connections shrink it so roster memory stays flat.
	ReadBufSize int

	// Checkpoint, when non-nil, makes the federation durable: a snapshot
	// of the coordinator state is written through it at the
	// CheckpointEvery cadence (and on Stop), and round messages announce
	// which rounds are durable so clients can bound their rollback
	// captures.
	Checkpoint *checkpoint.Manager
	// CheckpointEvery is the snapshot cadence in rounds (≤ 1 means every
	// round). The final round always snapshots.
	CheckpointEvery int
	// Restore, when non-nil, resumes the federation from a snapshot
	// (typically Checkpoint.Load()): the global parameters, round index,
	// failure counters, and session token all continue from it.
	Restore *checkpoint.Snapshot
	// Stop, when signaled (closed), ends the run at the next round
	// boundary: a final snapshot is written (when checkpointing) and
	// ListenAndRun returns fl.ErrStopped.
	Stop <-chan struct{}
	// AfterRound, when non-nil, runs after each completed round and its
	// checkpoint write; an error aborts the run immediately (the
	// crash-injection harness simulates coordinator death through it).
	AfterRound func(round int) error

	// Metrics, when non-nil, receives wire-layer telemetry (accepted
	// conns, decode bytes/failures, straggler drops, rejoins).
	Metrics *Metrics
	// RoundMetrics, when non-nil, receives the same per-round telemetry
	// the in-process engine records (round duration, participating and
	// dropped clients, validation rejections).
	RoundMetrics *fl.Metrics
}

func (c *Coordinator) faultTolerant() bool { return c.MinQuorum > 0 }

// quorum is the effective minimum client/update count per round.
func (c *Coordinator) quorum() int {
	if c.MinQuorum > 0 {
		return c.MinQuorum
	}
	return c.NumClients
}

func (c *Coordinator) updateBudget() int64 {
	if c.MaxUpdateBytes > 0 {
		return c.MaxUpdateBytes
	}
	// A dense update frame carries 8 bytes per parameter; 16×params plus
	// slack admits any honest update with a wide margin.
	return 64<<10 + 16*int64(len(c.Initial))
}

// partialBudget is the per-partial receive allowance: the update budget
// widened by the worst-case size of a sketch at the distributed capacity
// (K keys at 8 bytes plus K rows of 8·params each).
func (c *Coordinator) partialBudget(sketchCap int) int64 {
	b := c.updateBudget()
	if sketchCap > 0 {
		b += int64(sketchCap)*8*int64(len(c.Initial)+1) + 1024
	}
	return b
}

// treeSketchCap is the row-reservoir capacity this parent distributes to
// its child aggregators: the configured TreeSketchCap, defaulting to 64
// when a robust rule needs rows at all, and 0 (no sketches) for
// mean-family trees.
func (c *Coordinator) treeSketchCap() int {
	if !c.AcceptPartials {
		return 0
	}
	if c.TreeSketchCap > 0 {
		return c.TreeSketchCap
	}
	if c.Robust != nil {
		return 64
	}
	return 0
}

type clientConn struct {
	id      int
	samples int
	lim     *budgetReader
	br      *bufio.Reader
	w       *countWriter
	conn    net.Conn
	// cfg is the accepted compression config (Mode None when
	// uncompressed).
	cfg compress.Config
	// partial marks a child-aggregator session: rounds exchange MsgRound2
	// and MsgPartial2 frames instead of MsgRound and MsgUpdate.
	partial bool
	// hadToken records whether the hello carried a session token (feeds
	// the rejoin counter on resumed federations).
	hadToken bool
}

// newConnReader sizes one connection's buffered reader. The default 4 KiB
// is right for a handful of TCP peers; a 100k-connection load harness
// shrinks it so roster memory stays proportional to the window, not the
// population.
func newConnReader(r io.Reader, size int) *bufio.Reader {
	if size > 0 {
		return bufio.NewReaderSize(r, size)
	}
	return bufio.NewReader(r)
}

// decodeUpdateFrame is the byte-budgeted inbound path for one client
// update: read one frame under the byte budget, structurally decode it,
// densify any compressed shape against the broadcast global (which
// performs the semantic sparse-index validation), stamp the authoritative
// client ID (clients cannot impersonate others in the per-round observer
// view), and validate. Hostile bytes can only produce an error —
// wire.ReadFrame checks declared lengths against the budget before
// allocating and wire.DecodeUpdate runs under a panic guard (fuzzed by
// FuzzDecodeFrame).
func decodeUpdateFrame(r io.Reader, lim *budgetReader, budget int64, accepted compress.Mode,
	clientID int, global []float64, maxNorm float64) (fl.Update, compress.Mode, error) {
	lim.allow(wire.HeaderLen + budget)
	f, err := wire.ReadFrame(r, int(budget))
	if err != nil {
		if errors.Is(err, wire.ErrBudget) || errors.Is(err, wire.ErrPayload) ||
			errors.Is(err, wire.ErrTruncated) {
			return fl.Update{}, compress.None, errInvalid{err}
		}
		return fl.Update{}, compress.None, err
	}
	defer f.Release()
	if f.Type != wire.MsgUpdate {
		return fl.Update{}, f.Mode, errInvalid{fmt.Errorf("wire: expected update frame, got type %d", f.Type)}
	}
	// A client may always fall back to an uncompressed update (mode None)
	// — e.g. for a final fine-grained round — but cannot unilaterally
	// switch to a mode the handshake did not accept.
	if f.Mode != accepted && f.Mode != compress.None {
		return fl.Update{}, f.Mode, errInvalid{fmt.Errorf(
			"wire: client %d sent mode %s, accepted %s", clientID, f.Mode, accepted)}
	}
	u, err := wire.DecodeUpdate(f.Mode, f.Payload)
	if err != nil {
		return fl.Update{}, f.Mode, errInvalid{err}
	}
	u.ClientID = clientID
	if u, err = fl.Densify(u, global); err != nil {
		return fl.Update{}, f.Mode, errInvalid{err}
	}
	if err := fl.ValidateUpdateBounded(u, len(global), maxNorm); err != nil {
		return fl.Update{}, f.Mode, errInvalid{err}
	}
	return u, f.Mode, nil
}

// roundCtx carries one round's shared exchange parameters. bcast is the
// pre-encoded round frame shared read-only by every connection — MsgRound
// for clients, MsgRound2 for child aggregators — so the per-round encoding
// cost is paid once, not per client.
type roundCtx struct {
	round   int
	global  []float64
	bcast   []byte
	timeout time.Duration
	budget  int64
	maxNorm float64
	met     *Metrics
}

// sendRound writes the round's broadcast frame to one connection.
func (cc *clientConn) sendRound(rc *roundCtx) error {
	if _, err := cc.w.Write(rc.bcast); err != nil {
		return fmt.Errorf("transport: sending round %d to client %d: %w", rc.round, cc.id, err)
	}
	return nil
}

// exchange runs one round against one client: send the round frame, wait
// for the (possibly compressed) update, validate it. RoundTimeout (when
// set) covers the whole exchange through connection deadlines.
func (cc *clientConn) exchange(rc *roundCtx, out *fl.Update) error {
	if rc.timeout > 0 {
		cc.conn.SetDeadline(time.Now().Add(rc.timeout)) //nolint:errcheck
		defer cc.conn.SetDeadline(time.Time{})          //nolint:errcheck
	}
	if err := cc.sendRound(rc); err != nil {
		return err
	}
	u, mode, err := decodeUpdateFrame(cc.br, cc.lim, rc.budget, cc.cfg.Mode, cc.id, rc.global, rc.maxNorm)
	if err != nil {
		if !errors.As(err, &errInvalid{}) {
			rc.met.decodeFailure()
			return fmt.Errorf("transport: reading update from client %d: %w", cc.id, err)
		}
		return fmt.Errorf("transport: round %d: %w", rc.round, err)
	}
	if mode != compress.None {
		rc.met.compressedUpdate()
	}
	*out = u
	return nil
}

// exchangePartial is the parent side of one child exchange: broadcast the
// round frame, then read the MsgPartial2 carrying the child's pre-division
// weighted sums, structurally decoded and semantically validated (round
// match, weight/count positivity, finiteness, implied-mean norm bound).
func (cc *clientConn) exchangePartial(rc *roundCtx, out *fl.Partial) error {
	if rc.timeout > 0 {
		cc.conn.SetDeadline(time.Now().Add(rc.timeout)) //nolint:errcheck
		defer cc.conn.SetDeadline(time.Time{})          //nolint:errcheck
	}
	if err := cc.sendRound(rc); err != nil {
		return err
	}
	cc.lim.allow(wire.HeaderLen + rc.budget)
	f, err := wire.ReadFrame(cc.br, int(rc.budget))
	if err != nil {
		if errors.Is(err, wire.ErrBudget) || errors.Is(err, wire.ErrPayload) ||
			errors.Is(err, wire.ErrTruncated) {
			return fmt.Errorf("transport: round %d: %w", rc.round, errInvalid{err})
		}
		rc.met.decodeFailure()
		return fmt.Errorf("transport: reading partial from leaf %d: %w", cc.id, err)
	}
	defer f.Release()
	if f.Type != wire.MsgPartial2 {
		return fmt.Errorf("transport: round %d: %w", rc.round,
			errInvalid{fmt.Errorf("wire: expected partial frame, got type %d", f.Type)})
	}
	p, err := wire.DecodePartial2(f.Payload)
	if err != nil {
		return fmt.Errorf("transport: round %d: %w", rc.round, errInvalid{err})
	}
	// The leaf ID is stamped from the authenticated connection, so one
	// leaf cannot impersonate another in failure accounting.
	p.LeafID = cc.id
	if p.Round != rc.round {
		return fmt.Errorf("transport: round %d: %w", rc.round,
			errInvalid{fmt.Errorf("fl: leaf %d sent a partial for round %d", cc.id, p.Round)})
	}
	if err := fl.ValidatePartial(p, len(rc.global), rc.maxNorm); err != nil {
		return fmt.Errorf("transport: round %d: %w", rc.round, errInvalid{err})
	}
	*out = p
	return nil
}

// errInvalid tags validation failures so failureReason can classify them.
type errInvalid struct{ err error }

func (e errInvalid) Error() string { return e.err.Error() }
func (e errInvalid) Unwrap() error { return e.err }

func failureReason(err error) fl.FailureReason {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fl.FailTimeout
	}
	if errors.As(err, &errInvalid{}) || errors.Is(err, errMsgTooLarge) {
		return fl.FailInvalid
	}
	return fl.FailTransport
}

// handshake performs the server side of one connection's handshake: read
// the hello frame under the byte budget, enforce the session token, and
// settle compression and the partial role. It deliberately does NOT send
// the welcome — rejoin admission defers the welcome to a round boundary,
// where the promised NextRound is stable.
func (c *Coordinator) handshake(conn net.Conn, token string, rxTally, txTally *uint64) (*clientConn, error) {
	lim := &budgetReader{r: conn, bytes: c.Metrics.decodeBytesCounter(), tally: rxTally}
	cc := &clientConn{
		lim:  lim,
		br:   newConnReader(lim, c.ReadBufSize),
		w:    &countWriter{w: conn, bytes: c.Metrics.txBytesCounter(), tally: txTally},
		conn: conn,
	}
	lim.allow(maxHelloBytes)
	h, err := readHandshake(cc.br, wire.MsgHello, wire.DecodeHello)
	if err != nil {
		c.Metrics.decodeFailure()
		return nil, fmt.Errorf("transport: reading hello: %w", err)
	}
	if h.Token != "" && h.Token != token {
		// A client from some other (or stale) session; admitting it
		// would silently break resume bit-identity.
		return nil, fmt.Errorf("transport: client %d presented an unknown session token", h.ID)
	}
	if c.AcceptPartials && !h.Partial {
		return nil, fmt.Errorf("transport: client %d does not speak the partial protocol this root requires", h.ID)
	}
	cc.id = h.ID
	cc.samples = h.NumSamples
	cc.cfg = compress.Config{Mode: h.Compress, TopKFrac: h.TopKFrac}.WithDefaults()
	// A child aggregator that dialed a plain coordinator is declined: the
	// welcome lacks the confirmation, and the child sees that and bails.
	cc.partial = h.Partial && c.AcceptPartials
	cc.hadToken = h.Token != ""
	return cc, nil
}

// readHandshake reads one handshake frame of type typ from r and decodes
// it. The caller bounds the bytes r may consume.
func readHandshake[T any](r io.Reader, typ byte, decode func([]byte) (T, error)) (T, error) {
	var zero T
	f, err := wire.ReadFrame(r, maxHelloBytes-wire.HeaderLen)
	if err != nil {
		return zero, err
	}
	defer f.Release()
	if f.Type != typ {
		return zero, fmt.Errorf("wire: expected frame type %d, got %d", typ, f.Type)
	}
	return decode(f.Payload)
}

// sendWelcome answers the connection's accepted hello with the session
// welcome, specialized with the compression and partial role it settled
// on.
func (cc *clientConn) sendWelcome(w wire.Welcome) error {
	w.Compress, w.TopKFrac = cc.cfg.Mode, cc.cfg.TopKFrac
	w.Partial = cc.partial
	_, err := cc.w.Write(wire.AppendWelcomeFrame(nil, w))
	return err
}

// acceptClients collects the initial roster, answering each valid hello
// with a welcome carrying the session token, resume round, and the
// settled compression for that client. Any connection accepted
// before an error is closed before returning, so a bad hello from client
// n does not leak clients 1..n-1. rxTally/txTally feed the coordinator's
// per-round byte accounting.
func (c *Coordinator) acceptClients(ln net.Listener, w wire.Welcome, rxTally, txTally *uint64) (conns []*clientConn, err error) {
	defer func() {
		if err != nil {
			for _, cc := range conns {
				cc.conn.Close()
			}
		}
	}()
	var deadline time.Time
	if c.AcceptWindow > 0 {
		deadline = time.Now().Add(c.AcceptWindow)
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline) //nolint:errcheck
		}
	}
	seen := make(map[int]bool, c.NumClients)
	for len(conns) < c.NumClients {
		conn, err := ln.Accept()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && !deadline.IsZero() {
				if len(conns) >= c.quorum() {
					return conns, nil // start with the partial roster
				}
				return conns, fmt.Errorf("transport: accept window closed with %d of %d clients, need %d",
					len(conns), c.NumClients, c.quorum())
			}
			return conns, fmt.Errorf("transport: accept: %w", err)
		}
		if !deadline.IsZero() {
			conn.SetReadDeadline(deadline) //nolint:errcheck
		}
		cc, herr := c.handshake(conn, w.Token, rxTally, txTally)
		if herr == nil && seen[cc.id] {
			herr = fmt.Errorf("transport: duplicate client id %d", cc.id)
		}
		if herr == nil {
			if werr := cc.sendWelcome(w); werr != nil {
				herr = fmt.Errorf("transport: sending welcome to client %d: %w", cc.id, werr)
			}
		}
		if herr != nil {
			conn.Close()
			if c.faultTolerant() {
				continue // tolerate a bad peer; keep waiting for the rest
			}
			return conns, herr
		}
		if cc.hadToken && w.Resumed {
			c.Metrics.rejoin()
		}
		seen[cc.id] = true
		conn.SetReadDeadline(time.Time{}) //nolint:errcheck
		conns = append(conns, cc)
		c.Metrics.connAccepted()
	}
	return conns, nil
}

// newToken mints a session token for a durable federation.
func newToken() (string, error) {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		return "", fmt.Errorf("transport: minting session token: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// ListenAndRun listens on addr, waits for the client roster, runs the
// configured number of rounds, and returns the final global parameters.
// Passing ":0" style addresses is supported; the bound address is reported
// through the optional ready callback before blocking on accepts.
//
// With a Checkpoint manager attached the run is durable: snapshots land on
// the CheckpointEvery cadence, a Stop signal exits cleanly at the next
// round boundary (final snapshot, fl.ErrStopped), and a coordinator
// constructed with Restore continues a previous session where its last
// snapshot left off.
func (c *Coordinator) ListenAndRun(addr string, ready func(boundAddr string)) ([]float64, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	defer ln.Close()
	return c.RunWithListener(ln, ready)
}

// RetryConfig controls RunClientRetry's dial behavior: attempts, the
// exponential backoff schedule, and its jitter.
type RetryConfig struct {
	// MaxAttempts is the total number of connection attempts; values ≤ 1
	// mean a single attempt (no retry).
	MaxAttempts int
	// BaseDelay is the delay before the first retry (default 200ms); each
	// further retry doubles it up to MaxDelay (default 5s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Jitter randomizes each delay multiplicatively in
	// [1-Jitter, 1+Jitter]; 0 defaults to 0.2, negative disables jitter.
	Jitter float64
	// JitterSrc is the injectable randomness behind the jitter — an
	// internal/rng SplitMix64 source, so tests can seed (and if need be
	// serialize) the exact backoff schedule. Nil uses seed 1. Do not share
	// one source between concurrently retrying clients.
	JitterSrc *rng.Source
	// Rng, when non-nil, overrides JitterSrc entirely (legacy hook).
	Rng *rand.Rand
	// Dial overrides the dialer (fault-injection hook); nil dials TCP.
	Dial func(addr string) (net.Conn, error)
	// Codec is accepted for compatibility and must be "" or "binary";
	// any other value fails at start.
	//
	// Deprecated: the wire frame is the only protocol.
	Codec string
	// Compress offers an update-compression mode (compress.ParseMode
	// names: topk, q8, q16, topk8, topk16); empty sends dense updates.
	Compress string
	// TopKFrac is the top-k fraction offered with sparse modes (0 means
	// the compress package default, 1%).
	TopKFrac float64
	// Stop, when signaled (closed), aborts the client cleanly:
	// RunClientRetry returns ErrClientStopped instead of dialing again,
	// sleeping out a backoff, or blocking on the next round message.
	Stop <-chan struct{}
	// Metrics, when non-nil, counts retry attempts
	// (transport_retry_attempts_total).
	Metrics *Metrics
}

func (rc RetryConfig) withDefaults() RetryConfig {
	if rc.MaxAttempts < 1 {
		rc.MaxAttempts = 1
	}
	if rc.BaseDelay <= 0 {
		rc.BaseDelay = 200 * time.Millisecond
	}
	if rc.MaxDelay <= 0 {
		rc.MaxDelay = 5 * time.Second
	}
	if rc.Jitter == 0 {
		rc.Jitter = 0.2
	}
	if rc.Jitter < 0 {
		rc.Jitter = 0
	}
	if rc.Rng == nil {
		if rc.JitterSrc == nil {
			rc.JitterSrc = rng.NewSource(1)
		}
		rc.Rng = rand.New(rc.JitterSrc)
	}
	if rc.Dial == nil {
		rc.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return rc
}

// checkCodec enforces the deprecated Codec fields' one legal value.
func checkCodec(codec string) error {
	if codec != "" && codec != wire.CodecBinary {
		return fmt.Errorf("transport: unsupported codec %q (the wire frame is the only protocol)", codec)
	}
	return nil
}

// backoff returns the sleep before the attempt-th retry (attempt ≥ 1).
func (rc RetryConfig) backoff(attempt int) time.Duration {
	d := rc.BaseDelay
	for i := 1; i < attempt && d < rc.MaxDelay; i++ {
		d *= 2
	}
	if d > rc.MaxDelay {
		d = rc.MaxDelay
	}
	if rc.Jitter > 0 {
		d = time.Duration(float64(d) * (1 + rc.Jitter*(rc.Rng.Float64()*2-1)))
	}
	return d
}

// ErrClientStopped is returned by RunClientRetry when the client is shut
// down through RetryConfig.Stop. It signals a clean, deliberate exit, not
// a failure.
var ErrClientStopped = errors.New("transport: client stopped")

// errFatal tags session errors no retry can fix (protocol violations,
// training failures, impossible rollbacks).
type errFatal struct{ err error }

func (e errFatal) Error() string { return e.err.Error() }
func (e errFatal) Unwrap() error { return e.err }

// sessionState is what a client carries across reconnects of one
// federation session: the session token, its training position, and
// rollback captures of its local state for every round the coordinator has
// not yet made durable.
type sessionState struct {
	token     string
	nextRound int
	joined    bool
	// captures maps completed round r to the client's post-round-r local
	// state; entries at or below the announced durable round are pruned.
	captures map[int][]byte
	// noCapture is set after CaptureState fails once (a client not built
	// for statefulness); further rounds skip the attempt.
	noCapture bool
	// residual is the error-feedback accumulator of a compressed session: everything past lossy rounds dropped, folded into the next
	// round's delta. resCaptures snapshots it per completed round
	// alongside captures, so a rollback restores the residual the resumed
	// round's compression depends on — without it, a resumed federation
	// would diverge from an uninterrupted one.
	residual    []float64
	resCaptures map[int][]float64
}

// RunClient connects a local fl.Client to a coordinator at addr and
// participates until the coordinator signals completion. It makes a single
// connection attempt; see RunClientRetry for backoff.
func RunClient(addr string, client fl.Client) error {
	return RunClientRetry(addr, client, RetryConfig{MaxAttempts: 1})
}

// RunClientRetry is RunClient with dial retry and restart recovery:
// connection attempts that fail before the coordinator has started the
// federation are retried with exponential backoff and jitter, so clients
// can be launched before the server is up. Against a durable coordinator
// (one that issued a session token) mid-federation connection losses are
// also retried: the client reconnects, presents the token, rolls its local
// state back to the coordinator's resume round, and continues — with the
// attempt budget refreshed every time a reconnect makes progress, so a
// long outage is bounded by MaxAttempts of consecutive futile dials, not
// by total dials. Against a non-durable coordinator mid-federation errors
// remain fatal (there is nothing to rejoin).
func RunClientRetry(addr string, client fl.Client, rc RetryConfig) error {
	if err := checkCodec(rc.Codec); err != nil {
		return err
	}
	mode, err := compress.ParseMode(rc.Compress)
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	rc = rc.withDefaults()
	st := &sessionState{captures: make(map[int][]byte)}
	for attempt := 1; attempt <= rc.MaxAttempts; attempt++ {
		if attempt > 1 {
			rc.Metrics.retryAttempt()
			if !sleepOrStop(rc.backoff(attempt-1), rc.Stop) {
				return ErrClientStopped
			}
		}
		if stopped(rc.Stop) {
			return ErrClientStopped
		}
		joinedBefore, roundBefore := st.joined, st.nextRound
		err = runSession(addr, client, rc, mode, st)
		if err == nil || errors.Is(err, ErrClientStopped) || errors.As(err, &errFatal{}) {
			return err
		}
		if st.joined && st.token == "" {
			// Legacy fail-stop session: the coordinator cannot resume, so a
			// mid-federation drop is final.
			return err
		}
		if st.joined != joinedBefore || st.nextRound > roundBefore {
			attempt = 1 // progress: refresh the backoff budget
		}
	}
	return err
}

func stopped(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// sleepOrStop sleeps for d, returning false early if stop fires.
func sleepOrStop(d time.Duration, stop <-chan struct{}) bool {
	if stop == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

// clientFrameBudget bounds one inbound frame on the client side. Clients
// do not know the model size before the first round frame arrives, so the
// bound is a generous constant rather than model-derived.
const clientFrameBudget = 1 << 30

// runSession runs one connect-train session, updating st as the federation
// progresses so a later session can resume. mode is the parsed
// compression offer.
func runSession(addr string, client fl.Client, rc RetryConfig, mode compress.Mode, st *sessionState) error {
	conn, err := rc.Dial(addr)
	if err != nil {
		return fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	defer conn.Close()
	stopErr, release := watchStop(conn, rc.Stop)
	defer release()

	if _, err := conn.Write(wire.AppendHelloFrame(nil, wire.Hello{
		ID: client.ID(), NumSamples: client.NumSamples(), Token: st.token,
		Compress: mode, TopKFrac: rc.TopKFrac,
	})); err != nil {
		return stopErr(fmt.Errorf("transport: sending hello: %w", err))
	}
	// The first round frame can arrive right behind the welcome, so the
	// round loop reads from the same buffer.
	br := bufio.NewReader(conn)
	w, err := readHandshake(br, wire.MsgWelcome, wire.DecodeWelcome)
	if err != nil {
		return stopErr(fmt.Errorf("transport: reading welcome: %w", err))
	}
	if st.token == "" {
		st.token = w.Token
	} else if w.Token != st.token {
		return errFatal{fmt.Errorf("transport: coordinator session token changed mid-federation")}
	}
	cfg := compress.Config{Mode: w.Compress, TopKFrac: w.TopKFrac}.WithDefaults()
	if w.NextRound < st.nextRound {
		// The coordinator lost rounds this client already trained; rewind
		// to the capture matching its resume point.
		if err := rollback(client, st, w.NextRound, cfg.Mode != compress.None); err != nil {
			return errFatal{err}
		}
	}
	st.nextRound = w.NextRound

	for {
		f, err := wire.ReadFrame(br, clientFrameBudget)
		if err != nil {
			return stopErr(fmt.Errorf("transport: reading round frame: %w", err))
		}
		st.joined = true
		if f.Type == wire.MsgDone {
			f.Release()
			return nil
		}
		if f.Type != wire.MsgRound {
			f.Release()
			return errFatal{fmt.Errorf("transport: unexpected frame type %d mid-federation", f.Type)}
		}
		round, durable, params, err := wire.DecodeRound(f.Payload)
		f.Release()
		if err != nil {
			return errFatal{fmt.Errorf("transport: decoding round frame: %w", err)}
		}
		pruneCaptures(st, durable)
		u, err := client.TrainLocal(round, params)
		if err != nil {
			return errFatal{fmt.Errorf("transport: local training round %d: %w", round, err)}
		}
		if err := sendUpdate(conn, u, params, cfg, st); err != nil {
			return stopErr(err)
		}
		st.nextRound = round + 1
		var resid []float64
		if cfg.Mode != compress.None {
			resid = st.residual
		}
		capture(client, st, round, resid)
	}
}

// watchStop arranges for a Stop signal to unblock a session blocked in a
// read on conn by expiring its read deadline. It returns the error mapper
// that reports such an interrupted session as ErrClientStopped, and the
// release func that ends the watcher when the session returns.
func watchStop(conn net.Conn, stop <-chan struct{}) (stopErr func(error) error, release func()) {
	done := make(chan struct{})
	if stop != nil {
		go func() {
			select {
			case <-stop:
				conn.SetReadDeadline(time.Now()) //nolint:errcheck
			case <-done:
			}
		}()
	}
	stopErr = func(err error) error {
		if stopped(stop) {
			return ErrClientStopped
		}
		return err
	}
	return stopErr, func() { close(done) }
}

// sendUpdate encodes and sends one update frame. Uncompressed
// sessions send the raw dense parameters; compressed ones send the
// delta against the broadcast global with the error-feedback residual
// folded in, and keep what the lossy codec dropped as the new residual.
func sendUpdate(conn net.Conn, u fl.Update, broadcast []float64,
	cfg compress.Config, st *sessionState) error {
	var (
		frame []byte
		err   error
	)
	if cfg.Mode == compress.None {
		buf := wire.GetBuffer(wire.HeaderLen + wire.UpdatePayloadLen(compress.None, len(u.Params), 0))[:0]
		frame, err = wire.AppendUpdateFrame(buf, u, nil, compress.None)
	} else {
		if len(u.Params) != len(broadcast) {
			return errFatal{fmt.Errorf("transport: client %d produced %d params for a %d-param model",
				u.ClientID, len(u.Params), len(broadcast))}
		}
		delta := make([]float64, len(u.Params))
		for i := range delta {
			delta[i] = u.Params[i] - broadcast[i]
		}
		var d *compress.Delta
		var newRes []float64
		d, newRes, err = cfg.CompressEF(delta, st.residual)
		if err != nil {
			return errFatal{fmt.Errorf("transport: compressing update: %w", err)}
		}
		buf := wire.GetBuffer(wire.HeaderLen + wire.UpdatePayloadLen(cfg.Mode, d.Len, len(d.Indices)))[:0]
		frame, err = wire.AppendUpdateFrame(buf, u, d, cfg.Mode)
		if err == nil {
			// The residual advances only once the frame is built; a
			// send failure after this point is fine — the round will be
			// replayed from a rollback capture, which restores it.
			st.residual = newRes
		}
	}
	if err != nil {
		wire.PutBuffer(frame)
		return errFatal{fmt.Errorf("transport: encoding update: %w", err)}
	}
	_, werr := conn.Write(frame)
	wire.PutBuffer(frame)
	if werr != nil {
		return fmt.Errorf("transport: sending update: %w", werr)
	}
	return nil
}

// pruneCaptures drops rollback captures (state and residual) for rounds
// the coordinator has made durable — it can never rewind past them.
func pruneCaptures(st *sessionState, durable int) {
	for r := range st.captures {
		if r < durable {
			delete(st.captures, r)
		}
	}
	for r := range st.resCaptures {
		if r < durable {
			delete(st.resCaptures, r)
		}
	}
}

// capture records the client's post-round state for possible rollback,
// plus the compression residual as of the round's send when the session
// is compressed (resid non-nil). Only durable sessions need it, and only
// stateful clients can provide it; everything else degrades silently
// (rollback will then refuse).
func capture(client fl.Client, st *sessionState, round int, resid []float64) {
	if st.token == "" || st.noCapture {
		return
	}
	sc, ok := client.(fl.StatefulClient)
	if !ok {
		st.noCapture = true
		return
	}
	blob, err := sc.CaptureState()
	if err != nil {
		st.noCapture = true
		return
	}
	st.captures[round] = blob
	if resid != nil {
		if st.resCaptures == nil {
			st.resCaptures = make(map[int][]float64)
		}
		st.resCaptures[round] = append([]float64(nil), resid...)
	}
}

// rollback rewinds the client to its post-round-(nextRound-1) capture —
// including, on compressed sessions (needResidual), the error-feedback
// residual as it stood after that round's send.
func rollback(client fl.Client, st *sessionState, nextRound int, needResidual bool) error {
	if nextRound == st.nextRound {
		return nil
	}
	sc, ok := client.(fl.StatefulClient)
	if !ok || st.noCapture {
		return fmt.Errorf("transport: coordinator resumed at round %d but client %d is at %d and cannot roll back",
			nextRound, client.ID(), st.nextRound)
	}
	blob, ok := st.captures[nextRound-1]
	if !ok {
		return fmt.Errorf("transport: coordinator resumed at round %d but client %d holds no capture for round %d",
			nextRound, client.ID(), nextRound-1)
	}
	if needResidual {
		res, ok := st.resCaptures[nextRound-1]
		if !ok {
			return fmt.Errorf("transport: coordinator resumed at round %d but client %d holds no residual capture for round %d",
				nextRound, client.ID(), nextRound-1)
		}
		st.residual = append([]float64(nil), res...)
	}
	if err := sc.RestoreState(blob); err != nil {
		return fmt.Errorf("transport: rolling client %d back to round %d: %w", client.ID(), nextRound-1, err)
	}
	return nil
}
