// Package fusion implements the paper's information fusion system F: given
// the anonymized release P' and the web auxiliary data Q, it produces P̂, the
// adversary's estimate of the private data P (Section 4, Figure 2).
//
// The primary estimator is the fuzzy inference system of Figure 2, built
// automatically from the data's observed ranges with the paper's
// "simplistic set of knowledge rules ... assigned uniform weights"
// (Section 6.A). Comparison estimators — midpoint (no fusion), rank,
// ordinary least squares and k-nearest-neighbours — support the ablation
// benches.
//
// There is one fusion path. FuseWith assembles the adversary's features
// into a flat row-major Matrix (FeaturesMatrixWith) and hands it to the
// estimator's EstimateBatch, which runs its row loop chunk-parallel under
// the sweep's worker budget with scratch from a per-level Arena. The
// row-at-a-time versions of every estimator live in this package's tests
// as the oracles the bit-identity suites compare against.
package fusion

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Range is the publicly known span of the sensitive attribute (the paper's
// "income range for all the customers is [$40000 - $100000]").
type Range struct{ Lo, Hi float64 }

// Mid returns the range midpoint — the no-fusion estimate.
func (r Range) Mid() float64 { return (r.Lo + r.Hi) / 2 }

// valid reports whether the range is non-empty.
func (r Range) valid() bool { return r.Hi > r.Lo }

// Estimator maps the adversary's feature matrix to sensitive estimates
// within a range.
type Estimator interface {
	// Name identifies the estimator in reports and benches.
	Name() string
	// EstimateBatch writes one estimate per matrix row into est (len(est)
	// == m.Rows), each inside [out.Lo, out.Hi]. It draws scratch from the
	// arena and spreads row chunks over the budget's spare workers; a nil
	// budget runs inline and a nil arena allocates. The determinism
	// contract of parallel.For applies: results never depend on the number
	// of workers.
	EstimateBatch(m Matrix, out Range, b *parallel.Budget, a *Arena, est []float64) error
}

// ErrNoFeatures is returned when the release and auxiliary tables yield no
// numeric features.
var ErrNoFeatures = errors.New("fusion: no numeric features available")

// AuxFeatures is the precomputed aux-side half of the adversary's feature
// matrix: one mean-imputed column vector per numeric quasi-identifier of the
// auxiliary table Q. The columns are invariant across anonymization levels,
// so a sweep prepares them once (core.SweepContext) and every level only
// assembles the release-side half.
type AuxFeatures struct {
	// rows is Q's row count, or -1 for the no-aux adversary.
	rows  int
	cols  [][]float64
	names []string
}

// PrepareAux extracts and imputes the aux-side feature columns. A nil aux
// models the adversary without web access and yields an empty feature set.
func PrepareAux(aux *dataset.Table) *AuxFeatures {
	af := &AuxFeatures{rows: -1}
	if aux == nil {
		return af
	}
	af.rows = aux.NumRows()
	for _, i := range aux.Schema().IndicesOf(dataset.QuasiIdentifier) {
		if aux.Schema().Column(i).Kind != dataset.Number {
			continue
		}
		af.cols = append(af.cols, imputedColumn(aux, i))
		af.names = append(af.names, "aux."+aux.Schema().Column(i).Name)
	}
	return af
}

// imputedColumn reads a column's numeric values (interval midpoints) with
// missing cells replaced by the mean of the observed ones.
func imputedColumn(t *dataset.Table, idx int) []float64 {
	vals, present := t.FloatColumn(idx)
	var sum float64
	var seen int
	for r, ok := range present {
		if ok {
			sum += vals[r]
			seen++
		}
	}
	mean := 0.0
	if seen > 0 {
		mean = sum / float64(seen)
	}
	for r, ok := range present {
		if !ok {
			vals[r] = mean
		}
	}
	return vals
}

// sensitiveColumn validates the release's sensitive column for fusion: there
// must be exactly one and it must be numeric.
func sensitiveColumn(release *dataset.Table) (int, error) {
	sens := release.Schema().IndicesOf(dataset.Sensitive)
	if len(sens) != 1 {
		return 0, fmt.Errorf("fusion: release needs exactly one sensitive column, found %d", len(sens))
	}
	if release.Schema().Column(sens[0]).Kind != dataset.Number {
		return 0, fmt.Errorf("fusion: sensitive column %q is not numeric", release.Schema().Column(sens[0]).Name)
	}
	return sens[0], nil
}

// Fuse runs the full F(P', Q) step: build features, estimate the sensitive
// attribute, and return P̂ — the release with its (single, numeric) sensitive
// column holding the estimates and every other column shared.
func Fuse(release, aux *dataset.Table, est Estimator, out Range) (*dataset.Table, error) {
	return FuseWith(release, PrepareAux(aux), est, out, nil, nil)
}

// FuseWith is Fuse with the aux-side feature columns already prepared and an
// optional budget and arena: features are assembled into an arena-backed
// Matrix and estimated chunk-parallel under the budget, with scratch reused
// from the arena. The produced table is bit-identical at any worker count.
func FuseWith(release *dataset.Table, aux *AuxFeatures, est Estimator, out Range, b *parallel.Budget, a *Arena) (*dataset.Table, error) {
	if est == nil {
		return nil, errors.New("fusion: nil estimator")
	}
	if !out.valid() {
		return nil, fmt.Errorf("fusion: empty sensitive range [%g, %g]", out.Lo, out.Hi)
	}
	sens, err := sensitiveColumn(release)
	if err != nil {
		return nil, err
	}
	m, err := FeaturesMatrixWith(release, aux, b, a)
	if err != nil {
		return nil, err
	}
	vals := a.Floats(m.Rows)
	if err := est.EstimateBatch(m, out, b, a, vals); err != nil {
		return nil, err
	}
	for i, v := range vals {
		vals[i] = stats.Clamp(v, out.Lo, out.Hi)
	}
	// WithColumnFloats copies vals, so the arena slice can be reused freely.
	return release.WithColumnFloats(sens, vals)
}

// CanFuse reports whether a release can enter the fusion step for the given
// range: the checks Fuse performs before any feature work (valid range,
// exactly one numeric sensitive column, at least one numeric feature when
// the adversary has no aux table). It is the allocation-free validation
// core.SweepContext runs per level in place of building the midpoint
// baseline table.
func CanFuse(release *dataset.Table, out Range) error {
	if !out.valid() {
		return fmt.Errorf("fusion: empty sensitive range [%g, %g]", out.Lo, out.Hi)
	}
	if _, err := sensitiveColumn(release); err != nil {
		return err
	}
	// FeaturesMatrix(release, nil) fails only when the release contributes
	// no numeric quasi-identifiers; preserve that contract without the build.
	for _, i := range release.Schema().IndicesOf(dataset.QuasiIdentifier) {
		if release.Schema().Column(i).Kind == dataset.Number {
			return nil
		}
	}
	return ErrNoFeatures
}

// FuseBaseline returns the no-fusion estimate P̂₀: the release with its
// sensitive column set to the public-range midpoint. It is Fuse(release,
// nil, Midpoint{}, out) minus the feature assembly the Midpoint estimator
// ignores, with identical validation — the pre-fusion side of the attack.
func FuseBaseline(release *dataset.Table, out Range) (*dataset.Table, error) {
	if err := CanFuse(release, out); err != nil {
		return nil, err
	}
	sens, _ := sensitiveColumn(release)
	mid := out.Mid()
	vals := make([]float64, release.NumRows())
	for i := range vals {
		vals[i] = mid
	}
	return release.WithColumnFloats(sens, vals)
}
