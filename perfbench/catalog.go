package main

import "fmt"

// The metric catalogue: every metric the benchmark reports, with its unit
// and better direction, and — for per-layer metrics — the end-to-end
// metric it should move, the workloads where that happens, and the
// workload where no change is predicted. BENCHMARK.json at the repository
// root lists the same names, units and directions (bench_test.go keeps
// the two in step).

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the end-to-end regression bound (share of the parent's
	// median); zero for per-layer metrics.
	Bound float64
	// Moves, On and Still describe a per-layer metric: it should move the
	// end-to-end metric Moves on the workloads On, and nothing on Still.
	// Metrics that watch the defense or the tracer move no speed metric.
	Moves string
	On    string
	Still string
}

// describe is the metric's report annotation.
func (d metricDef) describe() string {
	s := d.Better + " is better"
	if d.Bound > 0 {
		s += fmt.Sprintf("; bound %.2f", d.Bound)
	}
	if d.Moves != "" {
		s += "; moves " + d.Moves + " on " + d.On
	}
	if d.Still != "" {
		s += "; no change predicted on " + d.Still
	}
	return s
}

const (
	onCIP  = "cip-train, cip-train-f32"
	onF32  = "cip-train-f32"
	onTree = "fed-tree"
)

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "train_samples_per_s", Unit: "samples/s", Better: "higher", Bound: 0.25},
	{Name: "round_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "round_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "updates_per_s", Unit: "updates/s", Better: "higher", Bound: 0.25},
	{Name: "peak_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.2},
	{Name: "alloc_mb_per_round", Unit: "MiB", Better: "lower", Bound: 0.15},
}

var perLayer = []metricDef{
	{Name: "tensor.gemm_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "tensor.gemm_gflops", Unit: "GFLOP/s", Better: "higher", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "tensor.im2col_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "tensor.col2im_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "tensor.narrow_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onF32, Still: onTree},
	{Name: "tensor.alloc_bytes", Unit: "B", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "tensor.pool_hit_ratio", Unit: "ratio", Better: "higher", Moves: "alloc_mb_per_round", On: onCIP, Still: onTree},

	{Name: "nn.conv1.fwd_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "nn.conv1.bwd_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "nn.conv2.fwd_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "nn.conv2.bwd_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "nn.conv3.fwd_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "nn.conv3.bwd_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "nn.relu.fwd_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "nn.relu.bwd_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "nn.pool.fwd_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "nn.pool.bwd_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "nn.head.fwd_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "nn.head.bwd_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "nn.fwd_calls", Unit: "count", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "nn.bwd_calls", Unit: "count", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},

	{Name: "core.step1_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "core.step2_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "core.calib_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	{Name: "core.blend_ms", Unit: "ms", Better: "lower", Moves: "train_samples_per_s", On: onCIP, Still: onTree},
	// The defense's quality: a speed change should move neither (the run
	// also fails its checks when they leave their bands).
	{Name: "core.test_acc", Unit: "ratio", Better: "higher", On: onCIP, Still: onTree},
	{Name: "core.mi_attack_acc", Unit: "ratio", Better: "lower", On: onCIP, Still: onTree},

	{Name: "fl.train_ms_p50", Unit: "ms", Better: "lower", Moves: "round_ms_p50", On: onCIP, Still: onTree},
	{Name: "fl.straggler_wait_ms", Unit: "ms", Better: "lower", Moves: "round_ms_p50", On: onCIP, Still: onTree},
	{Name: "fl.aggregate_ms", Unit: "ms", Better: "lower", Moves: "round_ms_p50", On: onCIP, Still: onTree},
	{Name: "fl.validate_us", Unit: "us", Better: "lower", Moves: "updates_per_s", On: onTree, Still: onCIP},
	{Name: "fl.fold_us", Unit: "us", Better: "lower", Moves: "updates_per_s", On: onTree, Still: onCIP},
	{Name: "fl.fold_partial_us", Unit: "us", Better: "lower", Moves: "updates_per_s", On: onTree, Still: onCIP},

	{Name: "wire.encode_update_us", Unit: "us", Better: "lower", Moves: "updates_per_s", On: onTree, Still: onCIP},
	{Name: "wire.decode_update_us", Unit: "us", Better: "lower", Moves: "updates_per_s", On: onTree, Still: onCIP},
	{Name: "wire.encode_round_us", Unit: "us", Better: "lower", Moves: "round_ms_p50", On: onTree, Still: onCIP},
	{Name: "wire.decode_round_us", Unit: "us", Better: "lower", Moves: "round_ms_p50", On: onTree, Still: onCIP},
	{Name: "wire.encode_partial_us", Unit: "us", Better: "lower", Moves: "round_ms_p50", On: onTree, Still: onCIP},
	{Name: "wire.decode_partial_us", Unit: "us", Better: "lower", Moves: "round_ms_p50", On: onTree, Still: onCIP},
	{Name: "wire.bytes_per_round", Unit: "B", Better: "lower", Moves: "updates_per_s", On: onTree, Still: onCIP},
	{Name: "wire.frames_per_round", Unit: "count", Better: "lower", Moves: "round_ms_p50", On: onTree, Still: onCIP},

	{Name: "transport.root_round_ms_p50", Unit: "ms", Better: "lower", Moves: "round_ms_p90", On: onTree, Still: onCIP},
	{Name: "transport.interior_round_ms_p50", Unit: "ms", Better: "lower", Moves: "round_ms_p90", On: onTree, Still: onCIP},
	{Name: "transport.leaf_round_ms_p50", Unit: "ms", Better: "lower", Moves: "round_ms_p90", On: onTree, Still: onCIP},
	{Name: "transport.client_turnaround_ms_p50", Unit: "ms", Better: "lower", Moves: "round_ms_p90", On: onTree, Still: onCIP},
	{Name: "transport.client_turnaround_ms_p90", Unit: "ms", Better: "lower", Moves: "round_ms_p90", On: onTree, Still: onCIP},
	{Name: "transport.client_write_block_ms", Unit: "ms", Better: "lower", Moves: "round_ms_p90", On: onTree, Still: onCIP},
	{Name: "transport.hop_ms", Unit: "ms", Better: "lower", Moves: "round_ms_p90", On: onTree, Still: onCIP},
	{Name: "transport.handshake_ms_p50", Unit: "ms", Better: "lower", Moves: "setup_s", On: onTree, Still: onCIP},
	{Name: "transport.inflight_peak", Unit: "count", Better: "lower", Moves: "peak_heap_mb", On: onTree, Still: onCIP},
	{Name: "transport.straggler_drops", Unit: "count", Better: "lower", Moves: "round_ms_p90", On: onTree, Still: onCIP},
	{Name: "transport.rejoins", Unit: "count", Better: "lower", Moves: "round_ms_p90", On: onTree, Still: onCIP},
	{Name: "transport.decode_failures", Unit: "count", Better: "lower", Moves: "round_ms_p90", On: onTree, Still: onCIP},

	{Name: "checkpoint.save_ms_p50", Unit: "ms", Better: "lower", Moves: "round_ms_p50", On: onTree, Still: onCIP},
	{Name: "checkpoint.bytes", Unit: "B", Better: "lower", Moves: "round_ms_p50", On: onTree, Still: onCIP},

	{Name: "datasets.load_ms", Unit: "ms", Better: "lower", Moves: "setup_s", On: onCIP, Still: onTree},

	// The tracing itself: overhead is the traced run's round_ms_p50 over
	// the untraced one's, minus one; the span cost is one begin/end pair.
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", On: onCIP + ", " + onTree},
	{Name: "trace.span_cost_ns", Unit: "ns", Better: "lower", On: onCIP + ", " + onTree},
}
