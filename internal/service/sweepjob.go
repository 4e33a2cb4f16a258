package service

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/core/planner"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// This file is the fred-sweep job executor. Every sweep runs through the
// planner: a classic spec as its exhaustive walk, an adaptive spec
// (adaptive/k_set/stride/budget_ms) as a search. Either way the sweep
// warm-starts from the engine's cross-job level index, resumes from a
// crashed run's checkpoints, publishes per-level events and trace spans,
// and ends in core.DecideWithin — so decisions are bit-identical for the
// same series.
//
// The selection deliberately differs from core.Run/Decide: the service
// sweeps the full requested selection (the client asked for — and receives
// — the whole series) and filters candidacy by BOTH thresholds, where
// Algorithm 1 truncates the sweep at the first level below Tu and filters
// by Tp alone. On a non-monotone utility series the two can admit different
// candidate sets.

// finishSweep is the decision tail: resolve thresholds, decide over the
// planner's ascending series with the band selection, rebuild the optimal
// release if the argmax landed on a level without one (warm or
// resume-seeded), and index the series for future warm starts.
func (e *Engine) finishSweep(j *job, out *planner.Outcome) (*Result, error) {
	levels, tp, tu := out.Levels, j.spec.Tp, j.spec.Tu
	if tp == 0 && tu == 0 {
		var err error
		if tp, tu, err = core.CalibrateThresholds(levels); err != nil {
			return nil, err
		}
	}
	res, err := core.DecideWithin(levels, tp, tu, metrics.DefaultHOptions())
	if err != nil {
		return nil, err
	}
	relTable := res.Optimal
	if relTable == nil {
		// The argmax landed on a level whose release table was never
		// materialized in this run (warm-started, or seeded from a crash
		// checkpoint). Recompute it: anonymization is deterministic, so the
		// rebuilt release is byte-identical to the original.
		if relTable, err = release(j.p, anonymizerFor(j.spec.Scheme), res.OptimalK); err != nil {
			return nil, err
		}
	}
	e.levels.Put(j.levelKey, levels)
	return &Result{
		Table:     relTable,
		Levels:    summarizeLevels(res.Levels),
		OptimalK:  res.OptimalK,
		Hmax:      res.Hmax,
		Tp:        tp,
		Tu:        tu,
		Evaluated: out.Evaluated,
		Partial:   out.Partial,
	}, nil
}

// runFREDSweep is Algorithm 1 as a service job, run through the planner. A
// classic spec passes no thresholds and no deadline, which selects the
// planner's exhaustive walk: levels stream in ascending k on SweepWorkers
// workers, each event carrying the running calibration over the prefix.
// Adaptive specs let the planner search; their events arrive in evaluation
// order. Levels the job already has enter as Held seeds: level-index levels
// of an earlier sweep of the same table stream with source "warm", and a
// recovered job's own checkpoints (already in its status and event feed)
// join the series silently. Either way the final series is bit-identical
// to an uninterrupted from-scratch run's.
func (e *Engine) runFREDSweep(ctx context.Context, j *job) (*Result, error) {
	sp := j.spec
	tenant := j.snapshot().Tenant
	ks, tail, err := sweepLevels(sp, j.p.NumRows())
	if err != nil {
		return nil, err
	}
	held := e.levels.Get(j.levelKey, ks)
	resumed := make(map[int]bool, len(j.resume))
	for _, ls := range j.resume {
		// A checkpoint wins over a warm seed: it is in the event feed.
		held[ls.K] = core.LevelResult{
			K: ls.K, Before: ls.Before, After: ls.After,
			Gain: ls.Gain, Utility: ls.Utility, Candidate: ls.Candidate,
			AnonymizeTime: time.Duration(ls.AnonymizeNS),
			FuseTime:      time.Duration(ls.FuseNS),
			MetricsTime:   time.Duration(ls.MetricsNS),
		}
		resumed[ls.K] = true
	}
	// series is every level entering the run, in hook order: progress and
	// the running calibration count over it.
	var series []core.LevelResult
	var warmSeen []int
	// emit checkpoints and publishes a computed level (source "") or a
	// level-index seed (source "warm").
	emit := func(lr core.LevelResult, source string) {
		ls := summarizeLevel(lr)
		// With explicit thresholds, per-level candidacy is decidable as
		// levels stream; under auto-calibration it is settled only after
		// the sweep.
		ls.Candidate = (sp.Tp != 0 || sp.Tu != 0) && lr.After >= sp.Tp && lr.Utility >= sp.Tu
		var cal *Calibration
		// A classic spec's walk emits an ascending series, the only order
		// in which the running calibration is meaningful.
		if !sp.adaptive() {
			if tp, tu, err := core.CalibrateThresholds(series); err == nil {
				cal = &Calibration{Tp: tp, Tu: tu}
			}
		}
		e.recordLevel(j, ls, cal, 0.95*float64(len(series))/float64(len(ks)), source)
		if source == "warm" {
			e.metrics.plannerWarm.With(tenant).Inc()
			e.logger.DebugContext(ctx, "sweep level warm-started",
				"k", lr.K, "after", lr.After, "utility", lr.Utility)
			return
		}
		e.metrics.plannerEvaluated.With(tenant).Inc()
		// One trace span per computed level, timed where the work ran (core
		// measures lr.Elapsed inside RunLevel), so concurrent sweeps report
		// true per-level cost rather than emission gaps.
		e.tracer.Record(obs.Span{
			Job:        obs.JobID(ctx),
			Name:       "sweep.level",
			Start:      time.Now().Add(-lr.Elapsed),
			DurationNS: int64(lr.Elapsed),
			Attrs:      map[string]string{"k": strconv.Itoa(lr.K)},
		})
		e.logger.DebugContext(ctx, "sweep level",
			"k", lr.K, "after", lr.After, "utility", lr.Utility, "elapsed", lr.Elapsed)
	}
	cfg := planner.Config{
		Anonymizer:      anonymizerFor(sp.Scheme),
		Attack:          sp.attackConfig(j.aux),
		Levels:          ks,
		Workers:         e.opts.SweepWorkers,
		MinParallelRows: core.MinParallelSweepRows,
		Held:            held,
		Hooks: planner.Hooks{
			Level: func(lr core.LevelResult, seed bool) {
				series = append(series, lr)
				switch {
				case !seed:
					emit(lr, "")
				case resumed[lr.K]:
					// Its checkpoint and event exist already.
				default:
					warmSeen = append(warmSeen, lr.K)
					emit(lr, "warm")
				}
			},
			Fallback: func(reason string) {
				e.metrics.plannerFallbacks.With(tenant).Inc()
				e.logger.InfoContext(ctx, "planner fallback to exhaustive walk", "reason", reason)
				e.tracer.Record(obs.Span{
					Job: obs.JobID(ctx), Name: "planner.fallback", Start: time.Now(),
					Attrs: map[string]string{"reason": reason},
				})
			},
		},
	}
	if sp.adaptive() {
		cfg.Tp, cfg.Tu = sp.Tp, sp.Tu
		if sp.BudgetMS > 0 {
			cfg.Deadline = time.Now().Add(time.Duration(sp.BudgetMS) * time.Millisecond)
		}
	}
	out, err := planner.Run(ctx, j.p, cfg)
	if err != nil {
		return nil, err
	}
	e.publishPlan(ctx, j, tenant, out, tail, warmSeen)
	return e.finishSweep(j, out)
}

// publishPlan publishes a finished plan's accounting: warm ranges, skip
// ranges (the planner's plus the infeasible tail above the table), and the
// summary span GET /v1/jobs/{id}/trace surfaces.
func (e *Engine) publishPlan(ctx context.Context, j *job, tenant string, out *planner.Outcome, tail planner.SkipRange, warmSeen []int) {
	for _, r := range compressKs(warmSeen) {
		e.tracer.Record(obs.Span{
			Job: obs.JobID(ctx), Name: "planner.warmstart", Start: time.Now(),
			Attrs: map[string]string{"from_k": strconv.Itoa(r[0]), "to_k": strconv.Itoa(r[1])},
		})
	}
	skips := out.SkippedRanges
	if tail.N > 0 {
		skips = append(skips, tail)
	}
	for _, r := range skips {
		e.recordSkip(j, Skip{FromK: r.FromK, ToK: r.ToK, Reason: r.Reason})
		e.metrics.plannerSkipped.With(tenant, r.Reason).Add(float64(r.N))
		e.tracer.Record(obs.Span{
			Job: obs.JobID(ctx), Name: "planner.skip", Start: time.Now(),
			Attrs: map[string]string{
				"from_k": strconv.Itoa(r.FromK), "to_k": strconv.Itoa(r.ToK), "reason": r.Reason,
			},
		})
		e.logger.DebugContext(ctx, "planner skipped levels",
			"from_k", r.FromK, "to_k", r.ToK, "reason", r.Reason)
	}
	e.tracer.Record(obs.Span{
		Job: obs.JobID(ctx), Name: "planner.plan", Start: time.Now(),
		Attrs: map[string]string{
			"requested":  strconv.Itoa(out.Requested + tail.N),
			"evaluated":  strconv.Itoa(out.Evaluated),
			"warm":       strconv.Itoa(out.Warm),
			"skipped":    strconv.Itoa(out.Skipped),
			"infeasible": strconv.Itoa(out.Infeasible + tail.N),
			"fallback":   strconv.FormatBool(out.Fallback),
			"partial":    strconv.FormatBool(out.Partial),
		},
	})
}

// sweepLevels expands a spec's level selection for a table of rows rows.
// Both schemes reject exactly k > rows, so only levels k ≤ rows are
// expanded — max_k never sizes an allocation — and the rest come back as
// one infeasible tail range. A selection starting above the table fails as
// the sweep would.
func sweepLevels(sp Spec, rows int) ([]int, planner.SkipRange, error) {
	tail := planner.SkipRange{ToK: sp.MaxK, Reason: planner.SkipInfeasible}
	if sp.MinK > rows {
		return nil, tail, fmt.Errorf("service: level k=%d: %w", sp.MinK, dataset.ErrTooFewRecords)
	}
	var set []int
	for _, k := range sp.KSet { // ascending: withDefaults sorts it
		if k <= rows {
			set = append(set, k)
			continue
		}
		if tail.N == 0 {
			tail.FromK = k
		}
		tail.N++
	}
	ks, err := planner.Expand(sp.MinK, min(sp.MaxK, rows), sp.Stride, set)
	if err != nil {
		return nil, tail, err
	}
	if len(sp.KSet) == 0 {
		stride, last := max(sp.Stride, 1), ks[len(ks)-1]
		tail.ToK = sp.MinK + (sp.MaxK-sp.MinK)/stride*stride
		tail.FromK, tail.N = last+stride, (tail.ToK-last)/stride
	}
	return ks, tail, nil
}

// compressKs folds an ascending level list into maximal contiguous
// [from, to] runs.
func compressKs(ks []int) [][2]int {
	var out [][2]int
	for _, k := range ks {
		if n := len(out); n > 0 && out[n-1][1] == k-1 {
			out[n-1][1] = k
			continue
		}
		out = append(out, [2]int{k, k})
	}
	return out
}
