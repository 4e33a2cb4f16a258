package repro

// Determinism under parallelism: the worker budget is a performance knob,
// never a semantics knob. These property tests drive both anonymization
// kernels and the full sweep over randomized datagen cohorts at several
// worker counts and require bit-identical output everywhere — the same group
// assignments row for row, and IEEE-754-equal level series. They complement
// the golden test (one pinned cohort) with fresh cohorts each run shape.

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/microagg"
	"repro/internal/mondrian"
	"repro/internal/parallel"
)

var determinismWorkers = []int{1, 2, 8}

// assignFor runs the scheme's group-assignment kernel under the budget
// (nil budget = the plain sequential entry point).
func assignFor(t *testing.T, scheme string, sc *Scenario, k int, b *parallel.Budget) [][]int {
	t.Helper()
	var groups [][]int
	var err error
	switch scheme {
	case "mdav":
		a := microagg.New()
		if b == nil {
			groups, err = a.Assign(sc.P, k)
		} else {
			groups, err = a.AssignParallel(sc.P, k, b)
		}
	case "mondrian":
		a := mondrian.New()
		if b == nil {
			groups, err = a.Partition(sc.P, k)
		} else {
			groups, err = a.PartitionParallel(sc.P, k, b)
		}
	default:
		t.Fatalf("unknown scheme %q", scheme)
	}
	if err != nil {
		t.Fatal(err)
	}
	return groups
}

// TestGroupAssignmentDeterminism: for randomized cohorts, every worker count
// must produce exactly the sequential group structure — same groups, same
// order, same rows.
func TestGroupAssignmentDeterminism(t *testing.T) {
	for _, scheme := range []string{"mdav", "mondrian"} {
		for _, seed := range []int64{7, 23, 101} {
			for _, n := range []int{60, 350} {
				sc, err := UniversityScenario(ScenarioOptions{Seed: seed, N: n, DirectAux: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{2, 5, 11} {
					want := assignFor(t, scheme, sc, k, nil)
					for _, workers := range determinismWorkers {
						got := assignFor(t, scheme, sc, k, parallel.NewBudget(workers))
						if len(got) != len(want) {
							t.Fatalf("%s seed=%d n=%d k=%d workers=%d: %d groups, sequential made %d",
								scheme, seed, n, k, workers, len(got), len(want))
						}
						for g := range want {
							if len(got[g]) != len(want[g]) {
								t.Fatalf("%s seed=%d n=%d k=%d workers=%d: group %d sized %d, want %d",
									scheme, seed, n, k, workers, g, len(got[g]), len(want[g]))
							}
							for j := range want[g] {
								if got[g][j] != want[g][j] {
									t.Fatalf("%s seed=%d n=%d k=%d workers=%d: group %d row %d is %d, want %d",
										scheme, seed, n, k, workers, g, j, got[g][j], want[g][j])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestSweepSeriesDeterminism: the full sweep series — anonymization, fusion
// attack, dissimilarities, utility — is IEEE-754 bit-equal at every worker
// count, for both schemes, on randomized cohorts.
func TestSweepSeriesDeterminism(t *testing.T) {
	for _, scheme := range []struct {
		name string
		anon core.Anonymizer
	}{
		{"mdav", microagg.New()},
		{"mondrian", mondrian.New()},
	} {
		for _, seed := range []int64{7, 23} {
			sc, err := UniversityScenario(ScenarioOptions{Seed: seed, N: 120, DirectAux: true})
			if err != nil {
				t.Fatal(err)
			}
			want, err := sc.Sweep(2, 12, scheme.anon, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range determinismWorkers {
				got, err := sc.Sweep(2, 12, scheme.anon, nil, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s seed=%d workers=%d: %d levels, sequential made %d",
						scheme.name, seed, workers, len(got), len(want))
				}
				for i := range want {
					if got[i].K != want[i].K ||
						math.Float64bits(got[i].Before) != math.Float64bits(want[i].Before) ||
						math.Float64bits(got[i].After) != math.Float64bits(want[i].After) ||
						math.Float64bits(got[i].Gain) != math.Float64bits(want[i].Gain) ||
						math.Float64bits(got[i].Utility) != math.Float64bits(want[i].Utility) {
						t.Fatalf("%s seed=%d workers=%d: level k=%d diverged from sequential bits",
							scheme.name, seed, workers, want[i].K)
					}
				}
			}
		}
	}
}

// TestEstimatorSweepDeterminism pins the estimator axis of the attack plane:
// for every built-in estimator family, a sweep at workers 1, 2 and 8 must be
// IEEE-754 bit-equal to the one-worker inline sweep. (That the kernels match
// their row-at-a-time references is TestEstimateBatchMatchesEstimate's job
// in internal/fusion.)
func TestEstimatorSweepDeterminism(t *testing.T) {
	sc, err := UniversityScenario(ScenarioOptions{Seed: 13, N: 120, DirectAux: true})
	if err != nil {
		t.Fatal(err)
	}
	// Calibration for the supervised estimators: the fusion features of the
	// un-anonymized release against Q, labelled with the true salaries — the
	// adversary's "leaked sample" — trimmed to a small prefix so KNN stays
	// cheap and the OLS fit stays overdetermined.
	rel := sc.P.WithSuppressed(sc.P.Schema().IndicesOf(dataset.Sensitive)...)
	feats, err := fusion.FeaturesMatrix(rel, sc.Q)
	if err != nil {
		t.Fatal(err)
	}
	targets := sc.P.ColumnFloats(sc.P.Schema().MustLookup(sc.SensitiveCol), sc.SensitiveRange.Mid())
	calib := make([][]float64, 40)
	for i := range calib {
		calib[i] = feats.Row(i)
	}
	calibT := targets[:40]

	ests := map[string]func() fusion.Estimator{
		"fuzzy": func() fusion.Estimator {
			return &fusion.Fuzzy{Opts: fusion.FuzzyOptions{Domains: sc.FeatureDomains}}
		},
		"knn": func() fusion.Estimator {
			return &fusion.KNN{K: 5, CalibFeatures: calib, CalibTargets: calibT}
		},
		"regression": func() fusion.Estimator {
			return &fusion.Regression{CalibFeatures: calib, CalibTargets: calibT}
		},
		"ensemble": func() fusion.Estimator {
			return &fusion.Ensemble{
				Members: []fusion.Estimator{
					fusion.Midpoint{},
					fusion.Rank{},
					&fusion.KNN{K: 3, CalibFeatures: calib, CalibTargets: calibT},
				},
				Weights: []float64{1, 2, 3},
			}
		},
	}
	for name, mk := range ests {
		want, err := sc.Sweep(2, 10, nil, mk(), 1)
		if err != nil {
			t.Fatalf("%s: reference sweep: %v", name, err)
		}
		est := mk() // one estimator across worker counts, as a sweep would use it
		for _, workers := range determinismWorkers {
			got, err := sc.Sweep(2, 10, nil, est, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d levels, reference made %d", name, workers, len(got), len(want))
			}
			for i := range want {
				if got[i].K != want[i].K ||
					math.Float64bits(got[i].Before) != math.Float64bits(want[i].Before) ||
					math.Float64bits(got[i].After) != math.Float64bits(want[i].After) ||
					math.Float64bits(got[i].Gain) != math.Float64bits(want[i].Gain) ||
					math.Float64bits(got[i].Utility) != math.Float64bits(want[i].Utility) {
					t.Fatalf("%s workers=%d: level k=%d diverged from the inline sweep's bits",
						name, workers, want[i].K)
				}
			}
		}
	}
}
