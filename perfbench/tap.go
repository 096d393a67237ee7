package main

import (
	"net"
	"sync"
	"time"

	"github.com/cip-fl/cip/internal/fl/transport"
	"github.com/cip-fl/cip/internal/fl/wire"
	"github.com/cip-fl/cip/internal/telemetry"
)

// role says which end of which tree hop a tapped connection is.
type role int

const (
	roleRootDown     role = iota // root's end of a root↔interior TCP link
	roleInteriorUp               // interior's end of the same link
	roleInteriorDown             // interior's end of an interior↔leaf pipe
	roleLeafUp                   // leaf's end of that pipe
	roleLeafDown                 // leaf's end of a leaf↔client pipe
	roleClientUp                 // client's end of that pipe
)

// up reports whether the role is the child's end of a link: it reads
// round frames and answers with an update or partial.
func (r role) up() bool { return r == roleInteriorUp || r == roleLeafUp || r == roleClientUp }

// frameType returns the wire frame type when b starts with a frame header.
// A gob message never starts with wire.Magic: gob's uvarint length prefix
// is either below 0x80 or a negated byte count (0xF8–0xFF).
func frameType(b []byte) (byte, bool) {
	if len(b) < 3 || b[0] != wire.Magic || b[1] != wire.Version {
		return 0, false
	}
	return b[2], true
}

func isRoundFrame(t byte) bool { return t == wire.MsgRound || t == wire.MsgRound2 }

func isAnswerFrame(t byte) bool {
	return t == wire.MsgUpdate || t == wire.MsgPartial || t == wire.MsgPartial2
}

// exchange is one round as an up-role connection saw it: the round frame
// arrived at start; the answer's write began at write and ended at end.
type exchange struct{ start, write, end time.Time }

// connTap records every connection of a traced tree federation. A nil
// *connTap records nothing: wrap then only installs the root's
// first-broadcast stamp that ends setup.
type connTap struct {
	mu    sync.Mutex
	conns []*tapConn
}

func (t *connTap) wrap(c net.Conn, r role, onRoundSend func(time.Time)) net.Conn {
	if t == nil {
		if onRoundSend == nil {
			return c
		}
		return &tapConn{Conn: c, role: r, onRoundSend: onRoundSend}
	}
	tc := &tapConn{Conn: c, role: r, onRoundSend: onRoundSend, dialed: time.Now()}
	t.mu.Lock()
	t.conns = append(t.conns, tc)
	t.mu.Unlock()
	return tc
}

// wrapLeafDown taps a leaf's client connection and samples the leaf's
// in-flight update gauge on every read.
func (t *connTap) wrapLeafDown(c net.Conn, tm *transport.Metrics) net.Conn {
	if t == nil {
		return c
	}
	tc := t.wrap(c, roleLeafDown, nil).(*tapConn)
	tc.inflight = tm.InflightUpdates
	return tc
}

// totals sums bytes and frames written over every tapped connection.
func (t *connTap) totals() [2]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out [2]uint64
	for _, c := range t.conns {
		c.mu.Lock()
		out[0] += c.bytes
		out[1] += c.frames
		c.mu.Unlock()
	}
	return out
}

// tapConn records one connection's traffic and timing.
type tapConn struct {
	net.Conn
	role        role
	onRoundSend func(time.Time)
	inflight    *telemetry.Gauge

	mu           sync.Mutex
	dialed       time.Time
	handshake    time.Duration // dial to first byte back (up roles)
	readAny      bool
	inRound      bool
	roundStart   time.Time
	exchanges    []exchange  // up roles
	sends        []time.Time // round-frame write starts (down roles)
	bytes        uint64
	frames       uint64
	inflightPeak float64
}

func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	now := time.Now()
	c.mu.Lock()
	if n > 0 && !c.readAny {
		c.readAny = true
		c.handshake = now.Sub(c.dialed)
	}
	if t, ok := frameType(b[:n]); ok && c.role.up() && !c.inRound && isRoundFrame(t) {
		c.inRound, c.roundStart = true, now
	}
	if c.inflight != nil {
		c.inflightPeak = max(c.inflightPeak, c.inflight.Value())
	}
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(b)
	t1 := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bytes += uint64(n)
	t, ok := frameType(b)
	if !ok {
		return n, err
	}
	c.frames++
	switch {
	case c.role.up() && c.inRound && isAnswerFrame(t):
		c.exchanges = append(c.exchanges, exchange{start: c.roundStart, write: t0, end: t1})
		c.inRound = false
	case !c.role.up() && isRoundFrame(t):
		c.sends = append(c.sends, t0)
		if c.onRoundSend != nil {
			c.onRoundSend(t0)
		}
	}
	return n, err
}
