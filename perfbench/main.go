// Command perfbench is the repository's one performance benchmark. It runs
// one workload per invocation and prints, as the last line of standard
// output, a JSON object with the keys correct, attempted, failed and
// metrics:
//
//	bash perfbench/run.sh -workload cip-train -seed 1 -seconds 30 -trace 0
//
// (run.sh builds this program from the checkout first.) Workloads, all
// closed loops in which each client waits for the next broadcast:
//
//	cip-train      in-process CIP federations (fl.Server + core.Client),
//	               quick-scale CIFAR-100, dual-channel TinyVGG, 2 clients,
//	               α=0.7, 30 rounds, float64 compute; each federation of a
//	               run trains on its own data draw from the seed
//	cip-train-f32  the same federations under tensor.SetPrecision(F32)
//	fed-tree       root → 2 interiors (loopback TCP) → 4 leaves → 128
//	               light clients (in-memory pipes) with 103,364-parameter
//	               updates, binary codec, root checkpoint every round
//
// -trace 0 reports the end-to-end metrics of an untraced run; -trace 1
// reports the per-layer metrics of a traced run (see catalog.go). The
// benchmark drives every module through its public API only: it wraps
// nn.Layer, fl.Client and net.Conn, hooks AfterRound and observers, reads
// telemetry registries, and replays public calls at the workload's shapes.
// Any failed correctness check clears "correct" and exits with status 2.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/cip-fl/cip/internal/tensor"
)

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// tiny shrinks every workload to a seconds-long smoke run (used by the
	// benchmark's own tests); its figures are not comparable.
	tiny bool
	out  string // directory for traces and scratch files
}

// report is what a workload run produces.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	checks            []check
	notes             []string // extra report lines (digests, spans)
}

// check is one correctness check outcome.
type check struct {
	name string
	ok   bool
	info string
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, info: fmt.Sprintf(format, args...)})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// repeat calls f (with i = 0, 1, ...) at least minRuns times and then
// for as long as another call, as long as the last one, still ends within
// budget of the first call's start. It returns the number of calls.
func repeat(minRuns int, budget time.Duration, f func(i int) error) (int, error) {
	start := time.Now()
	var last time.Duration
	i := 0
	for ; i < minRuns || time.Since(start)+last <= budget; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return i, err
		}
		last = time.Since(t0)
	}
	return i, nil
}

type workloadFunc func(opts options) (*report, error)

var workloads = map[string]workloadFunc{
	"cip-train":     func(o options) (*report, error) { return runCIP(o, tensor.F64) },
	"cip-train-f32": func(o options) (*report, error) { return runCIP(o, tensor.F32) },
	"fed-tree":      runTree,
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opts options
	var seconds float64
	var trace int
	fs.StringVar(&opts.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opts.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&seconds, "seconds", 30, "how long to measure, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
	fs.BoolVar(&opts.tiny, "tiny", false, "shrink the workload to a smoke run")
	fs.StringVar(&opts.out, "out", ".bench_build", "directory for traces and scratch files")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	wf, ok := workloads[opts.workload]
	if !ok {
		return 1, fmt.Errorf("unknown workload %q (want one of %s)", opts.workload, strings.Join(workloadNames(), ", "))
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return 1, errors.New("-seconds must be positive and -trace 0 or 1")
	}
	opts.seconds = time.Duration(seconds * float64(time.Second))
	opts.trace = trace == 1
	runtime.GOMAXPROCS(runtime.NumCPU())
	// A federation whose peers wait on each other can hang if one of them
	// breaks in a way nothing reports; end the run rather than wait.
	watchdog := time.AfterFunc(opts.seconds+2*time.Minute, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		os.Exit(1)
	})
	defer watchdog.Stop()

	fmt.Fprintf(stdout, "# provenance %s\n", provenance(opts))
	rep, err := wf(opts)
	if err != nil {
		return 1, err
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			return 1, fmt.Errorf("workload %s did not report metric %s", opts.workload, d.Name)
		}
		out.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "# metric %-36s %16.6g %-9s %s\n", d.Name, v, d.Unit, d.describe())
	}
	if rep.attempted > 0 {
		fmt.Fprintf(stdout, "# metric %-36s %16.6g ratio\n", "failed_share", float64(rep.failed)/float64(rep.attempted))
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	for _, c := range rep.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(stdout, "# check %-28s %-6s %s\n", c.name, status, c.info)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 2, errors.New("a correctness check failed")
	}
	return 0, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// provenance describes the host and inputs of a run as one JSON object.
func provenance(opts options) string {
	p := struct {
		GOARCH     string   `json:"goarch"`
		NumCPU     int      `json:"nproc"`
		GOMAXPROCS int      `json:"gomaxprocs"`
		Features   []string `json:"cpu_features"`
		FMAKernel  bool     `json:"fma_kernel"`
		GoVersion  string   `json:"go_version"`
		Commit     string   `json:"commit"`
		Workload   string   `json:"workload"`
		Seed       int64    `json:"seed"`
		Seconds    float64  `json:"seconds"`
		Trace      bool     `json:"trace"`
		Tiny       bool     `json:"tiny,omitempty"`
	}{
		GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Features: tensor.KernelFeatures(), FMAKernel: tensor.HasFMAKernel(),
		GoVersion: runtime.Version(), Commit: commit(),
		Workload: opts.workload, Seed: opts.seed, Seconds: opts.seconds.Seconds(),
		Trace: opts.trace, Tiny: opts.tiny,
	}
	b, _ := json.Marshal(p)
	return string(b)
}

// commit resolves the checked-out commit from .git in the working
// directory, or reports "unknown" for a plain source tree.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
				return f[0]
			}
		}
	}
	return "unknown"
}
