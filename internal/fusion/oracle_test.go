package fusion

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/fuzzy"
	"repro/internal/stats"
)

// This file holds the row-at-a-time reference implementations of the fusion
// step: feature assembly into [][]float64, the fuse step over it, and one
// reference estimate per built-in estimator. They are the oracles the
// bit-identity tests compare the production batch path against; the fuzzy
// ones evaluate through fuzzy.System.Evaluate and EvaluateSugeno, the fuzzy
// package's reference evaluators.

// referenceEstimate dispatches to the row-at-a-time reference of a built-in
// estimator.
func referenceEstimate(est Estimator, features [][]float64, out Range) ([]float64, error) {
	switch e := est.(type) {
	case Midpoint:
		return midpointReference(features, out)
	case Rank:
		return rankReference(features, out)
	case *Ensemble:
		return ensembleReference(e, features, out)
	case *Regression:
		return regressionReference(e, features, out)
	case *KNN:
		return knnReference(e, features, out)
	case *Fuzzy:
		return fuzzyReference(e, features, out)
	case *FIS:
		return fisReference(e, features, out)
	default:
		return nil, fmt.Errorf("fusion: no reference for estimator %s", est.Name())
	}
}

// referenceFeatures assembles the row-major feature matrix FeaturesMatrixWith
// flattens: the release's numeric quasi-identifiers, then the prepared
// aux-side columns.
func referenceFeatures(release *dataset.Table, aux *AuxFeatures) (features [][]float64, names []string, err error) {
	if aux.rows >= 0 && release.NumRows() != aux.rows {
		return nil, nil, fmt.Errorf("fusion: release has %d rows, aux has %d; align them first (web.Gather aligns by roster order)", release.NumRows(), aux.rows)
	}
	var cols [][]float64
	for _, i := range release.Schema().IndicesOf(dataset.QuasiIdentifier) {
		if release.Schema().Column(i).Kind == dataset.Number {
			cols = append(cols, imputedColumn(release, i))
			names = append(names, release.Schema().Column(i).Name)
		}
	}
	cols = append(cols, aux.cols...)
	names = append(names, aux.names...)
	if len(cols) == 0 {
		return nil, nil, ErrNoFeatures
	}
	m := release.NumRows()
	features = make([][]float64, m)
	flat := make([]float64, m*len(cols))
	for r := range features {
		// cap==len so estimator code appending to a row cannot clobber the
		// next row in the shared backing array.
		row := flat[r*len(cols) : (r+1)*len(cols) : (r+1)*len(cols)]
		for j := range cols {
			row[j] = cols[j][r]
		}
		features[r] = row
	}
	return features, names, nil
}

// referenceFuse is FuseWith over the reference features and estimates.
func referenceFuse(release *dataset.Table, aux *AuxFeatures, est Estimator, out Range) (*dataset.Table, error) {
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
	features, _, err := referenceFeatures(release, aux)
	if err != nil {
		return nil, err
	}
	est2, err := referenceEstimate(est, features, out)
	if err != nil {
		return nil, err
	}
	if len(est2) != release.NumRows() {
		return nil, fmt.Errorf("fusion: estimator %s returned %d estimates for %d rows", est.Name(), len(est2), release.NumRows())
	}
	for i, v := range est2 {
		est2[i] = stats.Clamp(v, out.Lo, out.Hi)
	}
	return release.WithColumnFloats(sens, est2)
}

func midpointReference(features [][]float64, out Range) ([]float64, error) {
	if !out.valid() {
		return nil, fmt.Errorf("fusion: empty range")
	}
	est := make([]float64, len(features))
	for i := range est {
		est[i] = out.Mid()
	}
	return est, nil
}

func rankReference(features [][]float64, out Range) ([]float64, error) {
	if !out.valid() {
		return nil, fmt.Errorf("fusion: empty range")
	}
	n := len(features)
	if n == 0 {
		return nil, errors.New("fusion: rank estimator needs at least one record")
	}
	d := len(features[0])
	scores := make([]float64, n)
	for j := 0; j < d; j++ {
		colVals := make([]float64, n)
		for i := range features {
			colVals[i] = features[i][j]
		}
		norm := stats.Normalize(colVals)
		for i := range scores {
			scores[i] += norm[i] / float64(d)
		}
	}
	// Rank by score (average ranks are unnecessary; stable order by index).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ { // insertion sort on (score, index)
		for j := i; j > 0 && (scores[order[j]] < scores[order[j-1]] ||
			(scores[order[j]] == scores[order[j-1]] && order[j] < order[j-1])); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	est := make([]float64, n)
	if n == 1 {
		est[0] = out.Mid()
		return est, nil
	}
	for rank, idx := range order {
		est[idx] = out.Lo + float64(rank)/float64(n-1)*(out.Hi-out.Lo)
	}
	return est, nil
}

func ensembleReference(e *Ensemble, features [][]float64, out Range) ([]float64, error) {
	if len(e.Members) == 0 {
		return nil, errors.New("fusion: ensemble has no members")
	}
	weights := e.Weights
	if weights == nil {
		weights = make([]float64, len(e.Members))
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != len(e.Members) {
		return nil, fmt.Errorf("fusion: ensemble has %d members and %d weights", len(e.Members), len(weights))
	}
	var totalW float64
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("fusion: negative ensemble weight %g", w)
		}
		totalW += w
	}
	if totalW == 0 {
		return nil, errors.New("fusion: ensemble weights sum to zero")
	}
	acc := make([]float64, len(features))
	for m, member := range e.Members {
		est, err := referenceEstimate(member, features, out)
		if err != nil {
			return nil, fmt.Errorf("fusion: ensemble member %s: %w", member.Name(), err)
		}
		if len(est) != len(features) {
			return nil, fmt.Errorf("fusion: ensemble member %s returned %d estimates for %d rows", member.Name(), len(est), len(features))
		}
		for i, v := range est {
			acc[i] += weights[m] * v
		}
	}
	for i := range acc {
		acc[i] = stats.Clamp(acc[i]/totalW, out.Lo, out.Hi)
	}
	return acc, nil
}

func regressionReference(r *Regression, features [][]float64, out Range) ([]float64, error) {
	model, err := stats.FitOLS(r.CalibFeatures, r.CalibTargets)
	if err != nil {
		return nil, fmt.Errorf("fusion: regression calibration: %w", err)
	}
	est := make([]float64, len(features))
	for i, f := range features {
		est[i] = stats.Clamp(model.Predict(f), out.Lo, out.Hi)
	}
	return est, nil
}

func knnReference(k *KNN, features [][]float64, out Range) ([]float64, error) {
	if k.K < 1 {
		return nil, fmt.Errorf("fusion: knn needs K ≥ 1, got %d", k.K)
	}
	if len(k.CalibFeatures) != len(k.CalibTargets) || len(k.CalibFeatures) == 0 {
		return nil, errors.New("fusion: knn calibration features and targets must be non-empty and aligned")
	}
	kk := k.K
	if kk > len(k.CalibFeatures) {
		kk = len(k.CalibFeatures)
	}
	est := make([]float64, len(features))
	type cand struct {
		d float64
		y float64
		i int
	}
	for i, f := range features {
		cands := make([]cand, len(k.CalibFeatures))
		for c, cf := range k.CalibFeatures {
			if len(cf) != len(f) {
				return nil, fmt.Errorf("fusion: knn calibration row %d has %d features, query has %d", c, len(cf), len(f))
			}
			var d float64
			for j := range f {
				diff := f[j] - cf[j]
				d += diff * diff
			}
			cands[c] = cand{d, k.CalibTargets[c], c}
		}
		// Partial selection of the kk nearest under the (distance, index)
		// total order — the tie-break keeps the selected set and its sum
		// order a pure function of the data (the batch path's neighbour
		// heap relies on this).
		for s := 0; s < kk; s++ {
			best := s
			for j := s + 1; j < len(cands); j++ {
				if cands[j].d < cands[best].d ||
					(cands[j].d == cands[best].d && cands[j].i < cands[best].i) {
					best = j
				}
			}
			cands[s], cands[best] = cands[best], cands[s]
		}
		var sum float64
		for s := 0; s < kk; s++ {
			sum += cands[s].y
		}
		est[i] = stats.Clamp(sum/float64(kk), out.Lo, out.Hi)
	}
	return est, nil
}

// fuzzyReference builds the same system as the estimator (fresh, whether or
// not Domains are fixed) and evaluates it row by row through
// fuzzy.System.Evaluate.
func fuzzyReference(f *Fuzzy, features [][]float64, out Range) ([]float64, error) {
	if !out.valid() {
		return nil, fmt.Errorf("fusion: empty range")
	}
	n := len(features)
	if n == 0 {
		return nil, errors.New("fusion: fuzzy estimator needs at least one record")
	}
	d := len(features[0])
	if d == 0 {
		return nil, ErrNoFeatures
	}
	for i := range features {
		if len(features[i]) != d {
			return nil, fmt.Errorf("fusion: ragged feature row %d", i)
		}
	}
	sys, names, err := f.system(d, out, func(j int) (float64, float64) {
		col := make([]float64, n)
		for i := range features {
			col[i] = features[i][j]
		}
		lo, hi, _ := stats.MinMax(col) // n ≥ 1, never empty
		return lo, hi
	})
	if err != nil {
		return nil, err
	}
	est := make([]float64, n)
	in := make(map[string]float64, d)
	for i, row := range features {
		for j, name := range names {
			in[name] = row[j]
		}
		y, err := sys.Evaluate(in)
		if errors.Is(err, fuzzy.ErrNoRuleFired) {
			// Possible only with hand-written sparse rule bases; fall back
			// to the no-fusion estimate for that record.
			y = out.Mid()
		} else if err != nil {
			return nil, err
		}
		est[i] = stats.Clamp(y, out.Lo, out.Hi)
	}
	return est, nil
}

func fisReference(f *FIS, features [][]float64, out Range) ([]float64, error) {
	if f.System == nil {
		return nil, errors.New("fusion: FIS estimator has no system")
	}
	if !out.valid() {
		return nil, fmt.Errorf("fusion: empty range")
	}
	if len(features) == 0 {
		return nil, errors.New("fusion: FIS estimator needs at least one record")
	}
	d := len(features[0])
	if len(f.FeatureNames) != d {
		return nil, fmt.Errorf("fusion: %d feature names for %d features", len(f.FeatureNames), d)
	}
	declared := make(map[string]bool, d)
	for _, n := range f.FeatureNames {
		declared[n] = true
	}
	for _, in := range f.System.Inputs() {
		if !declared[in] {
			return nil, fmt.Errorf("fusion: system input %q has no feature column", in)
		}
	}
	est := make([]float64, len(features))
	in := make(map[string]float64, d)
	for i, row := range features {
		if len(row) != d {
			return nil, fmt.Errorf("fusion: ragged feature row %d", i)
		}
		for j, name := range f.FeatureNames {
			in[name] = row[j]
		}
		var y float64
		var err error
		if f.Sugeno {
			y, err = f.System.EvaluateSugeno(in)
		} else {
			y, err = f.System.Evaluate(in)
		}
		if errors.Is(err, fuzzy.ErrNoRuleFired) {
			y = out.Mid()
		} else if err != nil {
			return nil, err
		}
		est[i] = stats.Clamp(y, out.Lo, out.Hi)
	}
	return est, nil
}
