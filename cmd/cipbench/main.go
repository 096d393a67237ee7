// Command cipbench regenerates the paper's tables and figures.
//
// Usage:
//
//	cipbench -exp fig4 [-preset quick|full] [-seed 1]
//	cipbench -exp all
//	cipbench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/experiments"
	"github.com/cip-fl/cip/internal/flcli"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cipbench:", err)
		os.Exit(1)
	}
}

func run() error {
	exp := flag.String("exp", "", "experiment id (see -list), or 'all'")
	preset := flag.String("preset", "quick", "scale: quick or full")
	seed := flag.Int64("seed", 1, "base random seed")
	repeat := flag.Int("repeat", 1, "run each experiment N times and report mean±std")
	cacheDir := flag.String("cache-dir", "",
		"persist each completed (experiment, scale, seed) cell here and reuse it on rerun, "+
			"so an interrupted sweep resumes from the finished cells; empty disables caching")
	list := flag.Bool("list", false, "list experiment ids and exit")
	benchFilter := flag.String("bench", "",
		"run tracked perf workloads ('|'-separated substring match, 'all' for every one) and emit a BENCH json report")
	benchOut := flag.String("bench-out", "", "write the bench report to this file (default stdout)")
	baseline := flag.String("baseline", "",
		"previous bench report whose numbers become each op's 'before'")
	benchNote := flag.String("bench-note", "", "free-form note embedded in the bench report")
	wireGateFlag := flag.Bool("wire-gate", false,
		"enforce the wire-path lines on the bench run: ≥10x byte reduction for topk8 vs the "+
			"gob decoder's recorded bytes/update and binary decode no slower than its recorded ns/op")
	scaleGateFlag := flag.Bool("scale-gate", false,
		"run the 10k-client streaming-vs-buffered load pair and fail unless the streaming "+
			"fold's peak heap is ≥5x below the buffered baseline's")
	treeGateFlag := flag.Bool("tree-gate", false,
		"run the aggregation-tree gate: depth-2 robust sketch error within the documented "+
			"DKW envelope (bit-exact below capacity) and depth-3 tree p99 round latency "+
			"within 5x the flat federation's; emits a BENCH json report")
	precisionGateFlag := flag.Bool("precision-gate", false,
		"enforce the float32 tier's lines on the bench run: MatMul256-f32 ≥2x faster than "+
			"MatMul256, the f32 federation sweep faster than f64, and Fig. 4 quick accuracy "+
			"within tolerance across precisions")
	precisionFlag := flcli.RegisterPrecisionFlag()
	flag.Parse()

	if _, err := flcli.ApplyPrecisionFlag(*precisionFlag); err != nil {
		return err
	}

	if *scaleGateFlag {
		if err := runScaleGate(); err != nil {
			return err
		}
		if *benchFilter == "" && !*treeGateFlag {
			return nil
		}
	}
	if *treeGateFlag {
		if err := runTreeGate(*benchOut, *benchNote); err != nil {
			return err
		}
		if *benchFilter == "" {
			return nil
		}
	}
	if *benchFilter != "" {
		return runBench(*benchFilter, *baseline, *benchOut, *benchNote, *wireGateFlag, *precisionGateFlag)
	}

	if *list || *exp == "" {
		fmt.Println("experiments (DESIGN.md §4 maps each to its paper artifact):")
		for _, id := range experiments.IDs() {
			fmt.Println("  " + id)
		}
		return nil
	}

	scale := datasets.Quick
	switch *preset {
	case "quick":
	case "full":
		scale = datasets.Full
	default:
		return fmt.Errorf("unknown preset %q (want quick or full)", *preset)
	}
	cfg := experiments.Config{Scale: scale, Seed: *seed}

	var store *experiments.Store // nil disables cell caching
	if *cacheDir != "" {
		store = &experiments.Store{Dir: *cacheDir}
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		var (
			t   *experiments.Table
			err error
		)
		switch {
		case *repeat > 1 && store != nil:
			t, err = store.Repeat(id, cfg, *repeat)
		case *repeat > 1:
			t, err = experiments.Repeat(id, cfg, *repeat)
		case store != nil:
			t, err = store.Run(id, cfg)
		default:
			t, err = experiments.Run(id, cfg)
		}
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		fmt.Print(t.String())
		fmt.Printf("(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
