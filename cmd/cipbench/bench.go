package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/cip-fl/cip/internal/bench"
	"github.com/cip-fl/cip/internal/tensor"
)

// The perf-regression harness behind `make bench`: runs the tracked
// workloads from internal/bench via testing.Benchmark and emits a
// BENCH_*.json report. A previous report passed with -baseline becomes each
// op's "before", so successive perf PRs chain their measurements.

// benchNumbers are one measurement's regression-tracked quantities.
type benchNumbers struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	GFLOPS      float64 `json:"gflops,omitempty"`
	// WireBytesPerOp is the per-update transfer size the wire workloads
	// report (b.ReportMetric "wire-bytes/op"); 0 for non-wire workloads.
	WireBytesPerOp float64 `json:"wire_bytes_per_op,omitempty"`
}

// benchResult is one workload's entry in the report.
type benchResult struct {
	Op string `json:"op"`
	benchNumbers
	Before  *benchNumbers `json:"before,omitempty"`
	Speedup float64       `json:"speedup,omitempty"`
}

// benchReport is the BENCH_*.json schema. A report is a valid -baseline
// input for the next one. The host block records what actually produced
// the numbers — architecture, CPU count, and the SIMD features the active
// micro-kernels dispatched to — so cross-machine comparisons are explicit
// rather than accidental.
type benchReport struct {
	Note        string        `json:"note,omitempty"`
	GoMaxProcs  int           `json:"gomaxprocs"`
	GoArch      string        `json:"goarch"`
	NumCPU      int           `json:"num_cpu"`
	CPUFeatures []string      `json:"cpu_features,omitempty"`
	FMAKernel   bool          `json:"fma_kernel"`
	Benchmarks  []benchResult `json:"benchmarks"`
}

func loadBaseline(path string) (map[string]benchNumbers, error) {
	if path == "" {
		return nil, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	out := make(map[string]benchNumbers, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		out[b.Op] = b.benchNumbers
	}
	return out, nil
}

// The retired gob decoder's WireGobDecode row as recorded in
// BENCH_PR7.json: one dense 200k-parameter update. The wire gate holds the
// frame codec to these numbers now that the gob path is gone.
const (
	gobWireBytesPerUpdate = 1799294
	gobDecodeNsPerOp      = 1932137
)

// wireGate enforces the wire-path regression lines on a finished report:
// the headline compressed mode must move ≥10x fewer bytes per update than
// the recorded gob baseline, and the binary decoder must be no slower
// than gob's recorded decode.
func wireGate(rep *benchReport) error {
	byOp := make(map[string]benchNumbers, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		byOp[b.Op] = b.benchNumbers
	}
	gob := benchNumbers{NsPerOp: gobDecodeNsPerOp, WireBytesPerOp: gobWireBytesPerUpdate}
	bin, okB := byOp["WireBinaryDecode"]
	topk8, okT := byOp["WireTopK8Decode"]
	if !okB || !okT {
		return fmt.Errorf("wire gate needs WireBinaryDecode and WireTopK8Decode in the run (filter too narrow?)")
	}
	if topk8.WireBytesPerOp <= 0 {
		return fmt.Errorf("wire gate: missing wire-bytes/op metrics")
	}
	ratio := gob.WireBytesPerOp / topk8.WireBytesPerOp
	if ratio < 10 {
		return fmt.Errorf("wire gate: topk8 moves %.0f B/update vs gob's %.0f — %.1fx reduction, need ≥10x",
			topk8.WireBytesPerOp, gob.WireBytesPerOp, ratio)
	}
	if bin.NsPerOp > gob.NsPerOp {
		return fmt.Errorf("wire gate: binary decode %.0f ns/op is slower than gob's %.0f ns/op",
			bin.NsPerOp, gob.NsPerOp)
	}
	fmt.Fprintf(os.Stderr, "wire gate: %.1fx byte reduction (topk8 vs gob), binary decode %.2fx faster than gob\n",
		ratio, gob.NsPerOp/bin.NsPerOp)
	return nil
}

// fig4AccuracyTolerance bounds |acc_f64 - acc_f32| on the quick Fig. 4
// federation. The quick-scale run lands around 0.3 accuracy; float32
// rounding perturbs individual SGD trajectories, so the two precisions
// are compared as experiments, not bit patterns.
const fig4AccuracyTolerance = 0.05

// precisionGate enforces the float32 compute tier's regression lines on a
// finished report: the headline f32 GEMM must run ≥2x faster than the f64
// one (the 8-lane kernel doubles FLOPs per register over the 4-lane f64
// kernel, so anything under 2x means the kernel lost its shape), the f32
// federation sweep must be faster than the f64 sweep, and a fresh
// accuracy-parity run must land both precisions within tolerance on the
// quick Fig. 4 federation.
func precisionGate(rep *benchReport) error {
	byOp := make(map[string]benchNumbers, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		byOp[b.Op] = b.benchNumbers
	}
	mm64, ok64 := byOp["MatMul256"]
	mm32, ok32 := byOp["MatMul256-f32"]
	if !ok64 || !ok32 {
		return fmt.Errorf("precision gate needs MatMul256 and MatMul256-f32 in the run (filter too narrow?)")
	}
	if mm32.NsPerOp <= 0 {
		return fmt.Errorf("precision gate: MatMul256-f32 reported no time")
	}
	ratio := mm64.NsPerOp / mm32.NsPerOp
	if ratio < 2 {
		return fmt.Errorf("precision gate: MatMul256-f32 is only %.2fx faster than MatMul256, need ≥2x", ratio)
	}
	fmt.Fprintf(os.Stderr, "precision gate: MatMul256 f32 %.2fx faster than f64 (%.2f vs %.2f GFLOP/s)\n",
		ratio, 2*256*256*256/mm32.NsPerOp, 2*256*256*256/mm64.NsPerOp)
	sweep64, okS64 := byOp["Fig4ClientsSweep"]
	sweep32, okS32 := byOp["Fig4ClientsSweep-f32"]
	if !okS64 || !okS32 {
		return fmt.Errorf("precision gate needs Fig4ClientsSweep and Fig4ClientsSweep-f32 in the run")
	}
	if sweep32.NsPerOp >= sweep64.NsPerOp {
		return fmt.Errorf("precision gate: f32 federation sweep (%.0f ns/op) is not faster than f64's (%.0f ns/op)",
			sweep32.NsPerOp, sweep64.NsPerOp)
	}
	fmt.Fprintf(os.Stderr, "precision gate: Fig4ClientsSweep f32 %.2fx faster than f64\n",
		sweep64.NsPerOp/sweep32.NsPerOp)

	fmt.Fprintln(os.Stderr, "precision gate: training quick Fig. 4 federation at both precisions...")
	acc64, acc32, err := bench.Fig4AccuracyParity()
	if err != nil {
		return fmt.Errorf("precision gate: %w", err)
	}
	if diff := math.Abs(acc64 - acc32); diff > fig4AccuracyTolerance {
		return fmt.Errorf("precision gate: Fig. 4 accuracy diverges across precisions: f64 %.4f vs f32 %.4f (|Δ|=%.4f > %.2f)",
			acc64, acc32, diff, fig4AccuracyTolerance)
	}
	fmt.Fprintf(os.Stderr, "precision gate: Fig. 4 accuracy f64 %.4f, f32 %.4f (|Δ| ≤ %.2f)\n",
		acc64, acc32, fig4AccuracyTolerance)
	return nil
}

// runScaleGate is the coordinator-memory regression line: at 10k clients
// the streaming fold's peak heap footprint must be ≥5x below the
// buffered baseline's, or the O(roster × params) materialization has
// crept back in.
func runScaleGate() error {
	const clients, dim, rounds = 10_000, 32_768, 2
	fmt.Fprintf(os.Stderr, "scale gate: %d clients × %d params, streaming fold vs buffered baseline...\n",
		clients, dim)
	streaming, buffered, ratio, err := bench.ScaleGate(clients, dim, rounds)
	if err != nil {
		return fmt.Errorf("scale gate: %w", err)
	}
	fmt.Fprintf(os.Stderr, "scale gate: streaming peak heap %.1f MiB, buffered %.1f MiB\n",
		float64(streaming.PeakHeapBytes)/(1<<20), float64(buffered.PeakHeapBytes)/(1<<20))
	if ratio < 5 {
		return fmt.Errorf("scale gate: buffered peak heap is only %.1fx the streaming fold's, need ≥5x", ratio)
	}
	fmt.Fprintf(os.Stderr, "scale gate: %.1fx peak-heap reduction (need ≥5x)\n", ratio)
	return nil
}

// runTreeGate is the aggregation-tree regression line: the depth-2
// robust sketch merge must be bit-exact below the reservoir capacity and
// inside the documented DKW quantile envelope above it, and a depth-3
// tree at load must keep p99 round latency within 5x the flat
// federation's. The measurements land in a BENCH json report.
func runTreeGate(outPath, note string) error {
	fmt.Fprintln(os.Stderr, "tree gate: depth-2 sketch error vs DKW envelope, then flat vs depth-3 latency pair...")
	rep, err := bench.TreeGate(true)
	if err != nil {
		return err
	}
	rep.Note = note
	rep.GoMaxProcs = runtime.GOMAXPROCS(0)
	for _, g := range rep.Rules {
		fmt.Fprintf(os.Stderr, "tree gate: %-8s %d rows via cap-%d reservoirs: max err %.4f ≤ bound %.4f\n",
			g.Rule, g.Rows, g.SketchCap, g.MaxAbsErr, g.MaxBound)
	}
	fmt.Fprintf(os.Stderr, "tree gate: flat p99 %.1fms, depth-3 tree p99 %.1fms (limit 5x+50ms)\n",
		rep.Flat.P99RoundMs, rep.Tree.P99RoundMs)
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	return os.WriteFile(outPath, raw, 0o644)
}

// matchesFilter reports whether a benchmark name passes the -bench
// filter: "all" passes everything, otherwise the filter is a
// '|'-separated list of substrings and any one match suffices.
func matchesFilter(name, filter string) bool {
	if filter == "all" {
		return true
	}
	for _, part := range strings.Split(filter, "|") {
		if strings.Contains(name, part) {
			return true
		}
	}
	return false
}

func runBench(filter, baselinePath, outPath, note string, gate, precGate bool) error {
	base, err := loadBaseline(baselinePath)
	if err != nil {
		return err
	}
	rep := benchReport{
		Note:        note,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoArch:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		CPUFeatures: tensor.KernelFeatures(),
		FMAKernel:   tensor.HasFMAKernel(),
	}
	for _, s := range bench.Specs() {
		if !matchesFilter(s.Name, filter) {
			continue
		}
		r := testing.Benchmark(s.Fn)
		if r.N == 0 {
			return fmt.Errorf("benchmark %s failed to run", s.Name)
		}
		res := benchResult{Op: s.Name, benchNumbers: benchNumbers{
			NsPerOp:        float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:     r.AllocedBytesPerOp(),
			AllocsPerOp:    r.AllocsPerOp(),
			WireBytesPerOp: r.Extra["wire-bytes/op"],
		}}
		if s.FLOPs > 0 && res.NsPerOp > 0 {
			res.GFLOPS = s.FLOPs / res.NsPerOp // FLOP/ns == GFLOP/s
		}
		if b, ok := base[s.Name]; ok {
			before := b
			res.Before = &before
			if res.NsPerOp > 0 {
				res.Speedup = before.NsPerOp / res.NsPerOp
			}
		}
		line := fmt.Sprintf("%-22s %12.0f ns/op %8d B/op %5d allocs/op",
			s.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		if res.GFLOPS > 0 {
			line += fmt.Sprintf("  %6.2f GFLOP/s", res.GFLOPS)
		}
		if res.WireBytesPerOp > 0 {
			line += fmt.Sprintf("  %10.0f wire-B/op", res.WireBytesPerOp)
		}
		if res.Speedup > 0 {
			line += fmt.Sprintf("  %5.2fx vs baseline", res.Speedup)
		}
		fmt.Fprintln(os.Stderr, line)
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no tracked benchmark matches %q", filter)
	}
	if gate {
		if err := wireGate(&rep); err != nil {
			return err
		}
	}
	if precGate {
		if err := precisionGate(&rep); err != nil {
			return err
		}
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(outPath, out, 0o644)
}
