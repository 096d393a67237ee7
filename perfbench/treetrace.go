package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/wire"
)

// runTreeTraced is the traced fed-tree run: an untraced federation, then
// the same federation with every connection tapped, whose final globals
// must match; then replays of the codec, validation, fold and checkpoint
// calls at the workload's exact shapes.
func runTreeTraced(opts options) (*report, error) {
	shape := treeShapeFor(opts)
	initial := fullScaleInitial(opts.seed)
	want := closedForm(initial, shape.clients, shape.rounds)
	dir := filepath.Join(opts.out, "run", fmt.Sprintf("fed-tree-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	rep := &report{metrics: zeroMetrics()}

	plain, err := runTreeFed(shape, initial, dir, nil, nil)
	if err != nil {
		return nil, err
	}
	tap := &connTap{}
	run, err := runTreeFed(shape, initial, dir, tap, nil)
	if err != nil {
		return nil, err
	}
	checkTree(rep, run, want)
	plainDigest, tracedDigest := digestFloats(plain.global), digestFloats(run.global)
	checkTracedDigest(rep, tracedDigest, plainDigest)
	rep.attempted = shape.clients * shape.rounds
	rep.failed = run.dropped

	tr := newTracer()
	tr.epoch = run.firstSend
	rootSpans := make([]int, len(run.marks))
	prev := run.firstSend
	for r, end := range run.marks {
		rootSpans[r] = tr.record("transport.root.round", r, -1, prev, end)
		prev = end
	}
	m := rep.metrics
	var interior, leaf, turnaround, writeBlock, handshake, hop []float64
	inflight := 0.0
	up := map[string]*tapConn{} // interior ends of the TCP links, by local address
	for _, c := range tap.conns {
		if c.role == roleInteriorUp {
			up[c.LocalAddr().String()] = c
		}
	}
	for _, c := range tap.conns {
		name := map[role]string{roleInteriorUp: "interior", roleLeafUp: "leaf", roleClientUp: "client"}[c.role]
		for r, x := range c.exchanges {
			d := ms(x.end.Sub(x.start))
			id := tr.record("transport."+name+".round", r, rootSpans[r], x.start, x.end)
			switch c.role {
			case roleInteriorUp:
				interior = append(interior, d)
			case roleLeafUp:
				leaf = append(leaf, d)
			case roleClientUp:
				turnaround = append(turnaround, d)
				writeBlock = append(writeBlock, ms(x.end.Sub(x.write)))
				tr.record("transport.client.write", r, id, x.write, x.end)
			}
		}
		if c.role == roleClientUp {
			handshake = append(handshake, ms(c.handshake))
			tr.record("transport.handshake", -1, -1, c.dialed, c.dialed.Add(c.handshake))
		}
		if c.role == roleRootDown {
			if u := up[c.RemoteAddr().String()]; u != nil {
				for r := 0; r < min(len(c.sends), len(u.exchanges)); r++ {
					hop = append(hop, ms(u.exchanges[r].start.Sub(c.sends[r])))
					tr.record("transport.hop", r, rootSpans[r], c.sends[r], u.exchanges[r].start)
				}
			}
		}
		inflight = max(inflight, c.inflightPeak)
	}
	m["transport.root_round_ms_p50"] = median(run.roundMs)
	m["transport.interior_round_ms_p50"] = median(interior)
	m["transport.leaf_round_ms_p50"] = median(leaf)
	m["transport.client_turnaround_ms_p50"] = percentile(turnaround, 0.5)
	m["transport.client_turnaround_ms_p90"] = percentile(turnaround, 0.9)
	m["transport.client_write_block_ms"] = mean(writeBlock)
	m["transport.hop_ms"] = mean(hop)
	m["transport.handshake_ms_p50"] = median(handshake)
	m["transport.inflight_peak"] = inflight
	for _, n := range run.nodes {
		m["transport.straggler_drops"] += float64(n.tm.StragglersDropped.Value())
		m["transport.rejoins"] += float64(n.tm.Rejoins.Value())
		m["transport.decode_failures"] += float64(n.tm.DecodeFailures.Value())
	}
	if k := len(run.tapMarks); k > 1 {
		// Rounds 1..k-1 lie between the first and the last root round end.
		m["wire.bytes_per_round"] = float64(run.tapMarks[k-1][0]-run.tapMarks[0][0]) / float64(k-1)
		m["wire.frames_per_round"] = float64(run.tapMarks[k-1][1]-run.tapMarks[0][1]) / float64(k-1)
	}
	m["checkpoint.bytes"] = run.root.reg.Gauge("checkpoint_bytes", "").Value()

	if err := replayTree(m, run, dir, opts); err != nil {
		return nil, err
	}
	m["trace.overhead_pct"] = 100 * (median(run.roundMs)/median(plain.roundMs) - 1)
	m["trace.span_cost_ns"] = spanCostNs()
	path := filepath.Join(opts.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", opts.workload, opts.seed))
	if err := tr.writeJSONL(path); err != nil {
		return nil, err
	}
	rep.note("digest %s (traced = untraced: %v)", tracedDigest, plainDigest == tracedDigest)
	rep.note("trace %d spans written to %s; round p50 traced %.2f ms vs untraced %.2f ms",
		len(tr.spans), path, median(run.roundMs), median(plain.roundMs))
	addSelfTimes(rep, tr.summarize())
	return rep, nil
}

// replayTree times the per-update and per-partial calls of a round at the
// workload's shapes, plus the root's checkpoint write.
func replayTree(m map[string]float64, run *treeRun, dir string, opts options) error {
	global := run.global
	u := fl.Update{Params: global, NumSamples: 2}
	timeUs := func(f func()) float64 {
		var d []float64
		for i := 0; i < replayReps(opts)/4; i++ {
			t0 := time.Now()
			f()
			d = append(d, us(time.Since(t0)))
		}
		return median(d)
	}
	buf := make([]byte, 0, wire.HeaderLen+wire.UpdatePayloadLen(compress.None, len(global), 0)+1024)
	var err error
	m["wire.encode_update_us"] = timeUs(func() { buf, err = wire.AppendUpdateFrame(buf[:0], u, nil, compress.None) })
	if err != nil {
		return err
	}
	upd := append([]byte(nil), buf[wire.HeaderLen:]...)
	m["wire.decode_update_us"] = timeUs(func() { _, err = wire.DecodeUpdate(compress.None, upd) })
	if err != nil {
		return err
	}
	m["wire.encode_round_us"] = timeUs(func() { buf = wire.AppendRoundFrame(buf[:0], 1, 0, global) })
	rnd := append([]byte(nil), buf[wire.HeaderLen:]...)
	m["wire.decode_round_us"] = timeUs(func() { _, _, _, err = wire.DecodeRound(rnd) })
	if err != nil {
		return err
	}
	p := fl.Partial{Round: 1, Sum: global, Weight: 64, Count: 32, ExpectWeight: 64}
	m["wire.encode_partial_us"] = timeUs(func() { buf = wire.AppendPartial2Frame(buf[:0], p) })
	part := append([]byte(nil), buf[wire.HeaderLen:]...)
	m["wire.decode_partial_us"] = timeUs(func() { _, err = wire.DecodePartial2(part) })
	if err != nil {
		return err
	}

	m["fl.validate_us"] = timeUs(func() { err = fl.ValidateUpdateBounded(u, len(global), treeMaxNorm) })
	if err != nil {
		return err
	}
	f := fl.NewFold(len(global))
	m["fl.fold_us"] = timeUs(func() { err = f.Fold(u) })
	if err != nil {
		return err
	}
	f.Reset(len(global))
	m["fl.fold_partial_us"] = timeUs(func() { err = f.FoldPartial(p) })
	if err != nil {
		return err
	}

	snap, err := (&checkpoint.Manager{Path: run.ckptPath}).Load()
	if err != nil {
		return err
	}
	mgr := &checkpoint.Manager{Path: filepath.Join(dir, "replay.ckpt")}
	var saves []float64
	for i := 0; i < max(3, replayReps(opts)/20); i++ {
		t0 := time.Now()
		if err := mgr.Save(snap); err != nil {
			return err
		}
		saves = append(saves, ms(time.Since(t0)))
	}
	m["checkpoint.save_ms_p50"] = median(saves)
	return nil
}

var _ net.Conn = (*tapConn)(nil)
