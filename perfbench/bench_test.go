package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/tensor"
)

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// zeroWhenHealthy are per-layer counters that stay at zero on a run
// without faults.
var zeroWhenHealthy = []string{"transport.straggler_drops", "transport.rejoins", "transport.decode_failures"}

func applies(d metricDef, workload string) bool {
	return slices.Contains(strings.Split(d.On, ", "), workload)
}

// TestTinyWorkloads runs every workload at tiny size, untraced and
// traced, and checks that the result line carries exactly the catalogued
// metrics with their units, that every correctness check passes, and that
// each metric is non-zero where it applies and zero where it does not.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace="+trace, func(t *testing.T) {
				var buf bytes.Buffer
				code, err := run([]string{"-workload", wl, "-seed", "3", "-seconds", "0.1",
					"-trace", trace, "-tiny", "-out", t.TempDir()}, &buf)
				if code != 0 || err != nil {
					t.Fatalf("exit %d: %v\n%s", code, err, buf.String())
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case v.Unit != d.Unit:
						t.Errorf("metric %s unit %q, want %q", d.Name, v.Unit, d.Unit)
					case trace == "0" && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v.Value)
					case trace == "1" && applies(d, wl) && v.Value == 0 && !slices.Contains(zeroWhenHealthy, d.Name):
						t.Errorf("per-layer metric %s = 0 on %s", d.Name, wl)
					case trace == "1" && !applies(d, wl) && v.Value != 0:
						t.Errorf("per-layer metric %s = %v on %s, where it does not apply", d.Name, v.Value, wl)
					}
				}
			})
		}
	}
}

func failedChecks(rep *report) []string {
	var out []string
	for _, c := range rep.checks {
		if !c.ok {
			out = append(out, c.name)
		}
	}
	return out
}

func TestDefenseChecksFailOnWrongScores(t *testing.T) {
	for _, tc := range []struct {
		accs, mis []float64
		fail      []string
	}{
		{[]float64{0.2, 0.25, 0.05}, []float64{0.5, 0.5, 0.62}, nil},
		{[]float64{0.05, 0.2, 0.07}, []float64{0.5, 0.5, 0.5}, []string{"test_acc_floor"}},
		{[]float64{0.2, 0.2, 0.2}, []float64{0.75, 0.5, 0.66}, []string{"mi_attack_near_chance"}},
	} {
		rep := &report{}
		checkDefense(rep, tc.accs, tc.mis)
		if got := failedChecks(rep); !slices.Equal(got, tc.fail) {
			t.Errorf("accs %v mis %v: failed %v, want %v", tc.accs, tc.mis, got, tc.fail)
		}
	}
}

func TestRepeatDigestFailsOnMismatch(t *testing.T) {
	var d digestTally
	d.add("a")
	d.add("a")
	d.add("b")
	rep := &report{}
	d.check(rep)
	if got := failedChecks(rep); !slices.Equal(got, []string{"repeat_digest"}) {
		t.Fatalf("failed %v", got)
	}
}

// skewLayer deliberately changes a layer's output by one part in 10¹².
type skewLayer struct{ nn.Layer }

func (s skewLayer) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, nn.Cache) {
	y, c := s.Layer.Forward(x, train)
	tensor.ScaleInPlace(y, 1+1e-12)
	return y, c
}

// TestTracedDigestFailsOnChangedArithmetic runs a short CIP federation
// plainly, through the traced replay, and through a replay with one
// deliberately skewed layer: only the skew must fail the digest check.
func TestTracedDigestFailsOnChangedArithmetic(t *testing.T) {
	const rounds = 2
	digest := func(skew bool) string {
		tr := newTracer()
		f, err := newCIPFed(7, rounds, func(c *core.Client, rng *rand.Rand) (fl.Client, error) {
			if skew {
				seq := c.Model().Dual.Backbone.Net.(*nn.Sequential)
				seq.Layers[1] = skewLayer{seq.Layers[1]}
			}
			return newReplayClient(c, rng, &track{t: tr, root: -1})
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.run(rounds, &roundStats{}, nil, nil); err != nil {
			t.Fatal(err)
		}
		return f.digest()
	}
	plain, err := newCIPFed(7, rounds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.run(rounds, &roundStats{}, nil, nil); err != nil {
		t.Fatal(err)
	}
	rep := &report{}
	checkTracedDigest(rep, digest(false), plain.digest())
	if got := failedChecks(rep); got != nil {
		t.Fatalf("faithful replay failed %v", got)
	}
	checkTracedDigest(rep, digest(true), plain.digest())
	if got := failedChecks(rep); !slices.Equal(got, []string{"traced_digest"}) {
		t.Fatalf("skewed replay: failed %v, want traced_digest", got)
	}
}

// TestTracedLayerPassesParamBackprop checks the wrapper keeps the
// first-layer input-gradient skip and changes no gradient.
func TestTracedLayerPassesParamBackprop(t *testing.T) {
	build := func() *nn.Sequential {
		rng := rand.New(rand.NewSource(1))
		g := tensor.ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
		return nn.NewSequential(nn.NewConv2D(rng, g, 3), nn.ReLU{}, nn.Flatten{})
	}
	x := tensor.New(4, 2, 5, 5)
	x.RandNormal(rand.New(rand.NewSource(2)), 0, 1)
	grads := func(net *nn.Sequential) []float64 {
		y, c := net.Forward(x, true)
		g := tensor.New(y.Shape...)
		g.Fill(1)
		nn.TrainBackward(net, c, g)
		var out []float64
		for _, p := range net.Params() {
			out = append(out, p.Grad.Data...)
		}
		return out
	}
	plain, wrapped := build(), build()
	k := &track{t: newTracer(), root: -1}
	convs := 0
	for i, l := range wrapped.Layers {
		name := "nn." + layerName(l, &convs)
		wrapped.Layers[i] = &tracedLayer{inner: l, fwd: name + ".fwd", bwd: name + ".bwd", k: k}
	}
	if _, ok := wrapped.Layers[0].(nn.ParamBackprop); !ok {
		t.Fatal("tracedLayer does not implement nn.ParamBackprop")
	}
	if !slices.Equal(grads(plain), grads(wrapped)) {
		t.Fatal("wrapped gradients differ")
	}
	if n := k.t.summarize()["nn.conv1.bwd"].Count; n != 1 {
		t.Fatalf("conv1 backward traced %d times, want 1", n)
	}
}

// wrongClient returns a deliberately wrong update: client 0 skips its
// offset in every round.
type wrongClient struct{ offsetClient }

func (c *wrongClient) TrainLocal(round int, global []float64) (fl.Update, error) {
	if c.id == 0 {
		return fl.Update{Params: global, NumSamples: clientWeight(c.id), TrainLoss: 1}, nil
	}
	return c.offsetClient.TrainLocal(round, global)
}

func TestTreeChecksFailOnWrongResults(t *testing.T) {
	shape := treeShape{clients: 2 * treeLeaves, rounds: 2}
	initial := fullScaleInitial(1)
	want := closedForm(initial, shape.clients, shape.rounds)
	dir := t.TempDir()

	good, err := runTreeFed(shape, initial, dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{}
	checkTree(rep, good, want)
	if got := failedChecks(rep); got != nil {
		t.Fatalf("honest tree failed %v", got)
	}

	shape.client = func(id int) fl.Client { return &wrongClient{offsetClient{id: id}} }
	bad, err := runTreeFed(shape, initial, dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep = &report{}
	checkTree(rep, bad, want)
	if got := failedChecks(rep); !slices.Equal(got, []string{"tree_closed_form"}) {
		t.Fatalf("wrong client: failed %v, want tree_closed_form", got)
	}

	good.coverage[1] = 0.97
	rep = &report{}
	checkTree(rep, good, want)
	if got := failedChecks(rep); !slices.Equal(got, []string{"tree_coverage"}) {
		t.Fatalf("partial coverage: failed %v, want tree_coverage", got)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json at the repository
// root in step with the catalogue and the workload table.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, catalogue has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, catalogue has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue %+v", i, m, d)
		}
	}
}
