package service_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/service"
)

// The adaptive-planner service suite: cross-job warm starts through the
// level index, the bisection planner behind adaptive specs, and the
// observability both feed. Runs in CI's planner job (raced) — keep test
// names matching 'Planner|WarmStart'.

// plannerFixture is testFixture at a cohort size where the utility series
// is strictly monotone (n ≥ ~400), so bisection actually skips levels
// instead of falling back to the exhaustive walk.
func plannerFixture(t *testing.T, opts service.Options) (*service.Engine, string, string) {
	t.Helper()
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 400, DirectAux: true})
	if err != nil {
		t.Fatal(err)
	}
	store := service.NewStore()
	pInfo, err := store.Put(service.DefaultTenant, "P", sc.P)
	if err != nil {
		t.Fatal(err)
	}
	qInfo, err := store.Put(service.DefaultTenant, "Q", sc.Q)
	if err != nil {
		t.Fatal(err)
	}
	e := service.NewEngine(store, opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	})
	return e, pInfo.ID, qInfo.ID
}

// TestWarmStartSecondSweepComputesOnlyGap submits two overlapping classic
// sweeps of the same table and asserts the second one seeds the overlap
// from the cross-job level index — only the gap levels are computed, the
// seeded levels stream with source "warm", and the warm-start counter in
// the metrics exposition advances.
func TestWarmStartSecondSweepComputesOnlyGap(t *testing.T) {
	reg := obs.NewRegistry()
	e, p, q, _ := testFixture(t, service.Options{Workers: 1, Metrics: reg})
	e.Start()

	first := sweepSpec(p, q) // k = 2..10
	st, err := e.Submit(service.DefaultTenant, first)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, e, st.ID)
	if st.State != service.StateDone {
		t.Fatalf("first sweep ended %s: %s", st.State, st.Error)
	}
	if got := int(st.Summary["levels_evaluated"]); got != 9 {
		t.Fatalf("first sweep evaluated %d levels, want 9", got)
	}

	second := first
	second.MaxK = 14 // overlaps k = 2..10, adds k = 11..14
	st2, err := e.Submit(service.DefaultTenant, second)
	if err != nil {
		t.Fatal(err)
	}
	st2 = waitDone(t, e, st2.ID)
	if st2.State != service.StateDone {
		t.Fatalf("second sweep ended %s: %s", st2.State, st2.Error)
	}
	if st2.Cached {
		t.Fatal("second sweep has a different range and must not be a result-cache hit")
	}
	if got := int(st2.Summary["levels_evaluated"]); got != 4 {
		t.Fatalf("second sweep evaluated %d levels, want only the 4-level gap (k=11..14)", got)
	}
	if got := len(st2.Levels); got != 13 {
		t.Fatalf("second sweep reports %d levels, want the full 13 (k=2..14)", got)
	}

	// The seeded levels streamed with source "warm", in ascending k order
	// interleaved with the computed gap.
	warm := 0
	var streamed []int
	for ev := range mustStream(t, e, st2.ID) {
		if ev.Type != service.EventLevel {
			continue
		}
		streamed = append(streamed, ev.Level.K)
		if ev.Source == "warm" {
			warm++
			if ev.Level.K > 10 {
				t.Errorf("k=%d streamed as warm, but only k=2..10 were indexed", ev.Level.K)
			}
		}
	}
	if warm != 9 {
		t.Fatalf("second sweep streamed %d warm levels, want 9", warm)
	}
	for i, k := range streamed {
		if k != i+2 {
			t.Fatalf("second sweep streamed levels k=%v, want k=2..14 in ascending order", streamed)
		}
	}

	// A from-scratch engine sweeping k=2..14 must reach the bit-identical
	// decision — warm-started levels are adopted verbatim.
	eFresh, pf, qf, _ := testFixture(t, service.Options{Workers: 1})
	eFresh.Start()
	fresh := sweepSpec(pf, qf)
	fresh.MaxK = 14
	stf, err := eFresh.Submit(service.DefaultTenant, fresh)
	if err != nil {
		t.Fatal(err)
	}
	stf = waitDone(t, eFresh, stf.ID)
	if stf.State != service.StateDone {
		t.Fatalf("fresh sweep ended %s: %s", stf.State, stf.Error)
	}
	for _, key := range []string{"optimal_k", "h_max", "tp", "tu"} {
		if st2.Summary[key] != stf.Summary[key] {
			t.Errorf("warm-started %s = %v, fresh sweep = %v", key, st2.Summary[key], stf.Summary[key])
		}
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `planner_warmstart_levels_total{tenant="default"} 9`) {
		t.Errorf("metrics exposition missing the warm-start counter:\n%s", grepFamily(buf.String(), "planner_"))
	}
}

// TestAdaptivePlannerJobSkipsAndMatchesExhaustive runs the same explicit
// thresholds through a classic exhaustive sweep and an adaptive one on a
// monotone cohort: the planner must evaluate strictly fewer levels, publish
// skip events with the bisection reason, advance the skip counter, and
// decide bit-identically.
func TestAdaptivePlannerJobSkipsAndMatchesExhaustive(t *testing.T) {
	reg := obs.NewRegistry()
	// The level index is disabled so the adaptive job cannot warm-start from
	// the exhaustive one — this test measures bisection, not warm starts.
	e, p, q := plannerFixture(t, service.Options{Workers: 1, Metrics: reg, LevelIndexSize: -1})
	e.Start()

	probe := service.Spec{
		Type: service.JobFREDSweep, Table: p, Aux: q,
		MinK: 2, MaxK: 16,
		SensitiveLo: 40000, SensitiveHi: 160000,
	}
	st, err := e.Submit(service.DefaultTenant, probe)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, e, st.ID)
	if st.State != service.StateDone {
		t.Fatalf("probe sweep ended %s: %s", st.State, st.Error)
	}
	// Tu at the k=6 utility puts the candidate band at k=2..6, leaving a
	// tail for bisection to skip. Tp stays 0 so candidacy is Tu-only and
	// the thresholds count as explicit.
	var tu float64
	for _, ls := range st.Levels {
		if ls.K == 6 {
			tu = ls.Utility
		}
	}
	if tu == 0 {
		t.Fatal("probe sweep did not report a k=6 level")
	}

	exhaustive := probe
	exhaustive.Tu = tu
	stE, err := e.Submit(service.DefaultTenant, exhaustive)
	if err != nil {
		t.Fatal(err)
	}
	stE = waitDone(t, e, stE.ID)
	if stE.State != service.StateDone {
		t.Fatalf("exhaustive sweep ended %s: %s", stE.State, stE.Error)
	}
	if got := int(stE.Summary["levels_evaluated"]); got != 15 {
		t.Fatalf("exhaustive sweep evaluated %d levels, want all 15", got)
	}

	adaptive := exhaustive
	adaptive.Adaptive = true
	stA, err := e.Submit(service.DefaultTenant, adaptive)
	if err != nil {
		t.Fatal(err)
	}
	stA = waitDone(t, e, stA.ID)
	if stA.State != service.StateDone {
		t.Fatalf("adaptive sweep ended %s: %s", stA.State, stA.Error)
	}
	if stA.Cached {
		t.Fatal("adaptive spec must have its own cache identity")
	}
	evaluated := int(stA.Summary["levels_evaluated"])
	if evaluated >= 15 {
		t.Fatalf("planner evaluated %d levels, wanted fewer than the exhaustive 15", evaluated)
	}
	for _, key := range []string{"optimal_k", "h_max"} {
		if stA.Summary[key] != stE.Summary[key] {
			t.Errorf("adaptive %s = %v, exhaustive = %v", key, stA.Summary[key], stE.Summary[key])
		}
	}

	// The event stream carries the skip ranges with the bisection reason.
	skipped := 0
	for ev := range mustStream(t, e, stA.ID) {
		if ev.Type != service.EventSkip {
			continue
		}
		if ev.Skip == nil || ev.Skip.Reason != "bisection" {
			t.Fatalf("skip event without a bisection payload: %+v", ev)
		}
		skipped += ev.Skip.ToK - ev.Skip.FromK + 1
	}
	if skipped == 0 {
		t.Fatal("adaptive sweep published no skip events")
	}
	if evaluated+skipped != 15 {
		t.Errorf("evaluated %d + skipped %d levels, want the requested 15", evaluated, skipped)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	if !strings.Contains(expo, `planner_levels_skipped_total{reason="bisection",tenant="default"}`) &&
		!strings.Contains(expo, `planner_levels_skipped_total{tenant="default",reason="bisection"}`) {
		t.Errorf("metrics exposition missing the skip counter:\n%s", grepFamily(expo, "planner_"))
	}
}

// TestAdaptivePlannerWarmStartFillsFromIndex chains warm starts into the
// planner: an exhaustive sweep populates the level index, then an adaptive
// sweep of the same table adopts every level it needs without computing any.
func TestAdaptivePlannerWarmStartFillsFromIndex(t *testing.T) {
	e, p, q := plannerFixture(t, service.Options{Workers: 1})
	e.Start()

	probe := service.Spec{
		Type: service.JobFREDSweep, Table: p, Aux: q,
		MinK: 2, MaxK: 16,
		SensitiveLo: 40000, SensitiveHi: 160000,
	}
	st, err := e.Submit(service.DefaultTenant, probe)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, e, st.ID)
	if st.State != service.StateDone {
		t.Fatalf("probe sweep ended %s: %s", st.State, st.Error)
	}

	sub := probe
	sub.KSet = []int{2, 5, 9, 14}
	stK, err := e.Submit(service.DefaultTenant, sub)
	if err != nil {
		t.Fatal(err)
	}
	stK = waitDone(t, e, stK.ID)
	if stK.State != service.StateDone {
		t.Fatalf("k-set sweep ended %s: %s", stK.State, stK.Error)
	}
	if got := int(stK.Summary["levels_evaluated"]); got != 0 {
		t.Fatalf("k-set sweep computed %d levels, want 0 (all warm from the index)", got)
	}
	if got := len(stK.Levels); got != 4 {
		t.Fatalf("k-set sweep reports %d levels, want 4", got)
	}
	for i, want := range []int{2, 5, 9, 14} {
		if stK.Levels[i].K != want {
			t.Fatalf("k-set level %d is k=%d, want k=%d", i, stK.Levels[i].K, want)
		}
	}
}

// mustStream drains a terminal job's event feed.
func mustStream(t *testing.T, e *service.Engine, id string) <-chan service.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	ch, err := e.Stream(ctx, service.DefaultTenant, id)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// grepFamily extracts the exposition lines of one metric family prefix, for
// failure messages.
func grepFamily(expo, prefix string) string {
	var out []string
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, prefix) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestSweepLevelsBoundedByTable: a sweep's level list is sized by the table,
// not by the client's max_k. Classic, adaptive and k-set sweeps reaching
// k = 2⁴⁰ finish with the series and decision of the same sweep capped at
// the row count, and publish the levels no table of that size can hold as
// one infeasible skip range.
func TestSweepLevelsBoundedByTable(t *testing.T) {
	e, p, q, sc := testFixture(t, service.Options{Workers: 1, LevelIndexSize: -1})
	e.Start()
	rows := sc.P.NumRows()
	const huge = 1 << 40

	run := func(sp service.Spec) (service.Status, []service.Skip) {
		t.Helper()
		st, err := e.Submit(service.DefaultTenant, sp)
		if err != nil {
			t.Fatal(err)
		}
		st = waitDone(t, e, st.ID)
		if st.State != service.StateDone {
			t.Fatalf("sweep %+v ended %s: %s", sp, st.State, st.Error)
		}
		var skips []service.Skip
		for ev := range mustStream(t, e, st.ID) {
			if ev.Type == service.EventSkip {
				skips = append(skips, *ev.Skip)
			}
		}
		return st, skips
	}

	capped := sweepSpec(p, q)
	capped.MaxK = rows
	stCapped, _ := run(capped)
	var tu float64
	for _, ls := range stCapped.Levels {
		if ls.K == 6 {
			tu = ls.Utility
		}
	}
	adaptiveCapped := capped
	adaptiveCapped.Adaptive, adaptiveCapped.Tu = true, tu
	ksetCapped := capped
	ksetCapped.KSet = []int{2, 5, 9}

	cases := []struct {
		name        string
		capped      service.Spec
		fromK       int
		uncappedSet []int
	}{
		{name: "classic", capped: capped, fromK: rows + 1},
		{name: "adaptive", capped: adaptiveCapped, fromK: rows + 1},
		{name: "k-set", capped: ksetCapped, fromK: huge, uncappedSet: []int{2, 5, 9, huge}},
	}
	for _, c := range cases {
		want := stCapped
		if c.name != "classic" {
			want, _ = run(c.capped)
		}
		sp := c.capped
		sp.MaxK = huge
		if c.uncappedSet != nil {
			sp.KSet = c.uncappedSet
		}
		got, skips := run(sp)

		if len(got.Levels) != len(want.Levels) {
			t.Fatalf("%s: max_k=2^40 reported %d levels, capped sweep %d", c.name, len(got.Levels), len(want.Levels))
		}
		for i := range got.Levels {
			a, b := got.Levels[i], want.Levels[i]
			// Phase timings are wall-clock measurements; everything else
			// must match bit for bit.
			a.AnonymizeNS, a.FuseNS, a.MetricsNS = b.AnonymizeNS, b.FuseNS, b.MetricsNS
			if a != b {
				t.Fatalf("%s: level %d differs from the capped sweep:\n got %+v\nwant %+v", c.name, i, got.Levels[i], want.Levels[i])
			}
		}
		for _, key := range []string{"optimal_k", "h_max", "tp", "tu", "levels_evaluated"} {
			if got.Summary[key] != want.Summary[key] {
				t.Errorf("%s: %s = %v, capped sweep %v", c.name, key, got.Summary[key], want.Summary[key])
			}
		}
		var infeasible []service.Skip
		for _, sk := range skips {
			if sk.Reason == "infeasible" {
				infeasible = append(infeasible, sk)
			}
		}
		if len(infeasible) != 1 || infeasible[0].FromK != c.fromK || infeasible[0].ToK != huge {
			t.Errorf("%s: infeasible skips %+v, want one range k=%d..%d", c.name, infeasible, c.fromK, huge)
		}
	}

	// A selection starting above the table still fails as the sweep would.
	tooHigh := sweepSpec(p, q)
	tooHigh.MinK, tooHigh.MaxK = rows+1, huge
	st, err := e.Submit(service.DefaultTenant, tooHigh)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, e, st.ID)
	if st.State != service.StateFailed || !strings.Contains(st.Error, dataset.ErrTooFewRecords.Error()) {
		t.Fatalf("sweep from k=%d on %d rows ended %s (%q), want failed with %q", rows+1, rows, st.State, st.Error, dataset.ErrTooFewRecords)
	}
}
