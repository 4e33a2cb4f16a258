// Command fred runs FRED Anonymization (Algorithm 1) over a private table
// and an auxiliary table: it sweeps anonymization levels, simulates the
// fusion attack at each, and emits the fusion-resilient release with the
// optimal level.
//
// Usage:
//
//	fred -p p.csv -q q.csv -lo 40000 -hi 160000 \
//	     [-tp T] [-tu T] [-mink 2] [-maxk 16] [-scheme mdav|mondrian] \
//	     [-workers N] [-out optimal.csv] [-literal-loop]
//	     [-adaptive] [-kset 2,4,8] [-stride N] [-budget 30s]
//	     [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Every mode runs through the adaptive planner (internal/core/planner), and
// levels print as a live table the moment each enters the series, so a long
// sweep on a big cohort shows progress instead of going dark until the end.
// The sweep runs once — when -tp and -tu are both zero, thresholds are
// auto-calibrated from the swept series the way the paper set them "based on
// experimental observations", with no second probe sweep.
//
// The classic run decides with Algorithm 1 itself: its stopping rule
// truncates the series where the loop would have stopped, then the Tp
// filter and the H argmax pick the release. With explicit thresholds the
// planner bisects the Tu crossing, evaluating every level up to and
// including the first with U < Tu — exactly the prefix Algorithm 1 sweeps —
// and skips the levels above it; the rows print in evaluation order.
// Auto-calibration and -literal-loop walk every level.
//
// -adaptive, -kset, -stride and -budget switch to the service's band
// semantics (both thresholds filter candidacy, no Tu truncation):
// -adaptive bisects with explicit thresholds, -kset / -stride restrict the
// evaluated set, and -budget bounds wall-clock and reports the best partial
// release at the deadline. After the live table every run prints which
// ranges the planner skipped and why.
//
// -cpuprofile and -memprofile write pprof profiles of the run (the heap
// profile is taken after the sweep, post-GC) for `go tool pprof`. Profiles
// are flushed only on successful exits — error paths leave at most a
// truncated file.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/core/planner"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/metrics"
	"repro/internal/microagg"
	"repro/internal/mondrian"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	pPath := flag.String("p", "", "private table P CSV")
	qPath := flag.String("q", "", "auxiliary table Q CSV (optional)")
	lo := flag.Float64("lo", 0, "public lower bound of the sensitive attribute")
	hi := flag.Float64("hi", 0, "public upper bound of the sensitive attribute")
	tp := flag.Float64("tp", 0, "protection threshold Tp (0 = auto-calibrate)")
	tu := flag.Float64("tu", 0, "utility threshold Tu (0 = auto-calibrate)")
	minK := flag.Int("mink", 2, "first anonymization level")
	maxK := flag.Int("maxk", 16, "last anonymization level")
	scheme := flag.String("scheme", "mdav", "mdav or mondrian")
	workers := flag.Int("workers", 0, "parallel sweep workers (0 = NumCPU)")
	out := flag.String("out", "", "optional output CSV for the optimal release")
	literal := flag.Bool("literal-loop", false, "use the pseudocode's literal stopping rule")
	markdown := flag.Bool("markdown", false, "emit the run report as Markdown")
	adaptive := flag.Bool("adaptive", false, "use the adaptive planner (bisect the Tu crossing instead of walking every level)")
	kset := flag.String("kset", "", "comma-separated explicit level set (adaptive; overrides -mink/-maxk)")
	stride := flag.Int("stride", 0, "evaluate every Nth level of the range (adaptive)")
	budget := flag.Duration("budget", 0, "wall-clock budget: stop at the deadline with the best partial release (adaptive)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken after the sweep) to this file")
	flag.Parse()
	if *pPath == "" || *hi <= *lo {
		flag.Usage()
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle live heap so the profile shows retention, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	p, err := readCSV(*pPath)
	if err != nil {
		log.Fatal(err)
	}
	var q *dataset.Table
	if *qPath != "" {
		if q, err = readCSV(*qPath); err != nil {
			log.Fatal(err)
		}
	}
	var anon core.Anonymizer
	switch *scheme {
	case "mdav":
		anon = microagg.New()
	case "mondrian":
		anon = mondrian.New()
	default:
		log.Fatalf("unknown scheme %q", *scheme)
	}
	atk := core.AttackConfig{Aux: q, SensitiveRange: fusion.Range{Lo: *lo, Hi: *hi}}
	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.NumCPU()
	}

	band := *kset != "" || *stride > 1 || *budget > 0 || *adaptive
	if band && *literal {
		log.Fatal("fred: -literal-loop applies to the classic range sweep only")
	}
	if *kset != "" && *stride > 1 {
		log.Fatal("fred: -kset and -stride are mutually exclusive")
	}
	res, err := sweep(p, core.Config{
		Anonymizer:       anon,
		Attack:           atk,
		Tp:               *tp,
		Tu:               *tu,
		MinK:             *minK,
		MaxK:             *maxK,
		LiteralPaperLoop: *literal,
	}, nWorkers, *kset, *stride, *budget, band)
	if err != nil {
		log.Fatal(err)
	}

	if err := report.WriteFRED(os.Stdout, res, report.Options{Markdown: *markdown}); err != nil {
		log.Fatal(err)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := dataset.WriteCSV(f, res.Optimal); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote fusion-resilient release to %s\n", *out)
	}
}

// sweep runs the requested levels through the planner, printing each as it
// enters the series, and decides: band runs with core.DecideWithin, classic
// runs with core.Decide, whose stopping rule rebuilds core.Run's series
// from the planner's. Auto-calibrated thresholds are printed and recorded
// in the result.
func sweep(p *dataset.Table, cfg core.Config, workers int, kset string, stride int, budget time.Duration, band bool) (*core.Result, error) {
	set, err := parseKSet(kset)
	if err != nil {
		return nil, err
	}
	// No level above the table's row count can be anonymized: clamping keeps
	// an oversized -maxk from materializing its level list.
	ks, err := planner.Expand(cfg.MinK, min(cfg.MaxK, max(cfg.MinK, p.NumRows())), stride, set)
	if err != nil {
		return nil, err
	}
	explicit := cfg.Tp != 0 || cfg.Tu != 0
	pcfg := planner.Config{
		Anonymizer:      cfg.Anonymizer,
		Attack:          cfg.Attack,
		Levels:          ks,
		Workers:         workers,
		MinParallelRows: core.MinParallelSweepRows,
		Hooks: planner.Hooks{
			Level: func(lr core.LevelResult, _ bool) {
				fmt.Printf("%4d  %13.6g  %13.6g  %13.6g  %12.6g\n",
					lr.K, lr.Before, lr.After, lr.Gain, lr.Utility)
			},
			Fallback: func(reason string) {
				fmt.Printf("exhaustive fallback: %s\n", reason)
			},
		},
	}
	// Bisection assumes the prose stopping rule, so the literal loop walks
	// like auto-calibration does.
	if explicit && !cfg.LiteralPaperLoop {
		pcfg.Tp, pcfg.Tu = cfg.Tp, cfg.Tu
	}
	if budget > 0 {
		pcfg.Deadline = time.Now().Add(budget)
	}
	// Count only levels the table can hold; the rest are reported after the
	// sweep as infeasible skips.
	feasible := ks[:sort.SearchInts(ks, p.NumRows()+1)]
	if len(feasible) > 0 {
		fmt.Printf("sweeping %d levels (k = %d..%d) on %d workers\n", len(feasible), feasible[0], feasible[len(feasible)-1], workers)
	}
	fmt.Printf("%4s  %13s  %13s  %13s  %12s\n", "k", "P∘P' (before)", "P∘P̂ (after)", "gain G", "utility U")
	out, err := planner.Run(context.Background(), p, pcfg)
	if err != nil {
		return nil, err
	}
	fmt.Println()
	for _, r := range out.SkippedRanges {
		fmt.Printf("skipped k = %d..%d (%s)\n", r.FromK, r.ToK, r.Reason)
	}
	if out.Partial {
		fmt.Println("budget expired: deciding over the levels evaluated in time")
	}
	fmt.Printf("evaluated %d of %d requested levels\n", out.Evaluated, out.Requested)
	if !explicit {
		if cfg.Tp, cfg.Tu, err = core.CalibrateThresholds(out.Levels); err != nil {
			return nil, err
		}
		fmt.Printf("auto-calibrated thresholds: Tp = %.6g, Tu = %.6g\n", cfg.Tp, cfg.Tu)
	}
	if band {
		return core.DecideWithin(out.Levels, cfg.Tp, cfg.Tu, metrics.DefaultHOptions())
	}
	return core.Decide(out.Levels, cfg)
}

// parseKSet parses the -kset flag: comma-separated anonymization levels.
func parseKSet(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, part := range parts {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("fred: bad -kset entry %q", part)
		}
		out = append(out, k)
	}
	return out, nil
}

func readCSV(path string) (*dataset.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f)
}
