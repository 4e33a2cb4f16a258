package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/core/planner"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/service"
)

// jobDigest is the canonical digest of one job's output: its summary, its
// level series and its result body. Timestamps, the cached flag and the
// levels_evaluated count are left out — they record how the service got the
// answer (cache, warm start), not the answer.
func jobDigest(o *outcome) string {
	var b strings.Builder
	st := o.Status
	fmt.Fprintf(&b, "%s|%s|", st.Type, st.State)
	keys := make([]string, 0, len(st.Summary))
	for k := range st.Summary {
		if k != "levels_evaluated" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%x;", k, math.Float64bits(st.Summary[k]))
	}
	for _, l := range st.Levels {
		fmt.Fprintf(&b, "|%d:%x:%x:%x:%x:%t", l.K, math.Float64bits(l.Before), math.Float64bits(l.After),
			math.Float64bits(l.Gain), math.Float64bits(l.Utility), l.Candidate)
	}
	fmt.Fprintf(&b, "|%s", o.BodyHash)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// checkOutcome verifies one completed job from what the client observed: the
// result body's shape, the level series, and the decision over it.
func checkOutcome(j jobDef, o *outcome, heads [][]byte, rows []int) error {
	st := o.Status
	if st.Type != j.Spec.Type {
		return fmt.Errorf("type %s, submitted %s", st.Type, j.Spec.Type)
	}
	if j.Spec.Type == service.JobAssess {
		if !bytes.HasPrefix(bytes.TrimSpace(o.BodyHead), []byte("{")) {
			return fmt.Errorf("assess result is not a JSON object")
		}
	} else {
		if !bytes.HasPrefix(o.BodyHead, heads[j.P]) {
			return fmt.Errorf("result headers differ from the input table's")
		}
		if o.BodyLines != rows[j.P]+2 {
			return fmt.Errorf("result has %d lines, want %d", o.BodyLines, rows[j.P]+2)
		}
	}
	switch j.Spec.Type {
	case service.JobAttack:
		if st.Summary["gain"] != st.Summary["before"]-st.Summary["after"] {
			return fmt.Errorf("attack gain %v ≠ before − after", st.Summary["gain"])
		}
	case service.JobFREDSweep:
		return checkSweep(j.Spec, st)
	}
	return nil
}

// checkSweep verifies a sweep's level series against its request and
// recomputes the decision with core.DecideWithin.
func checkSweep(sp service.Spec, st service.Status) error {
	ks, err := planner.Expand(sp.MinK, sp.MaxK, sp.Stride, sp.KSet)
	if err != nil {
		return err
	}
	requested := make(map[int]bool, len(ks))
	for _, k := range ks {
		requested[k] = true
	}
	if !sp.Adaptive && len(st.Levels) != len(ks) {
		return fmt.Errorf("exhaustive sweep returned %d levels, want %d", len(st.Levels), len(ks))
	}
	levels := make([]core.LevelResult, len(st.Levels))
	for i, l := range st.Levels {
		if !requested[l.K] || (i > 0 && l.K <= st.Levels[i-1].K) {
			return fmt.Errorf("level series out of order or outside the request at k=%d", l.K)
		}
		if l.Gain != metrics.InformationGain(l.Before, l.After) {
			return fmt.Errorf("k=%d: gain ≠ before − after", l.K)
		}
		levels[i] = core.LevelResult{K: l.K, Before: l.Before, After: l.After, Gain: l.Gain, Utility: l.Utility}
	}
	res, err := core.DecideWithin(levels, st.Summary["tp"], st.Summary["tu"], metrics.DefaultHOptions())
	if err != nil {
		return fmt.Errorf("decide over the returned series: %w", err)
	}
	if float64(res.OptimalK) != st.Summary["optimal_k"] || res.Hmax != st.Summary["h_max"] {
		return fmt.Errorf("optimal k %v (H %v), DecideWithin gives %d (H %v)",
			st.Summary["optimal_k"], st.Summary["h_max"], res.OptimalK, res.Hmax)
	}
	for i, l := range st.Levels {
		if l.Candidate != res.Levels[i].Candidate {
			return fmt.Errorf("k=%d: candidate flag differs from DecideWithin", l.K)
		}
	}
	if st.Summary["levels"] != float64(len(st.Levels)) {
		return fmt.Errorf("summary counts %v levels, series has %d", st.Summary["levels"], len(st.Levels))
	}
	return nil
}

// checkBody verifies a result body downloaded whole: it must digest to what
// the client saw during the run, and parse into the shape the job type
// promises.
func checkBody(j jobDef, st service.Status, body []byte, wantHash string, rows int) error {
	if !digestMatches(body, wantHash) {
		return fmt.Errorf("result differs from the bytes the run downloaded")
	}
	if j.Spec.Type == service.JobAssess {
		var a struct {
			Records            int
			Breach10, Breach20 float64
			Class3             float64
			BaselineClass3     float64 `json:"baseline_class3"`
			RankExposure       float64 `json:"rank_exposure"`
		}
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("assess result: %w", err)
		}
		if a.Records != rows || a.Breach10 != st.Summary["breach10"] || a.Breach20 != st.Summary["breach20"] ||
			a.Class3 != st.Summary["class3"] || a.BaselineClass3 != st.Summary["baseline_class3"] ||
			a.RankExposure != st.Summary["rank_exposure"] {
			return fmt.Errorf("assess result disagrees with the job summary")
		}
		return nil
	}
	t, err := dataset.ReadCSV(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("result CSV: %w", err)
	}
	if t.NumRows() != rows {
		return fmt.Errorf("result has %d rows, input %d", t.NumRows(), rows)
	}
	sens := t.Schema().IndicesOf(dataset.Sensitive)
	if len(sens) != 1 {
		return fmt.Errorf("result has %d sensitive columns", len(sens))
	}
	// A release suppresses the sensitive column; an attack's P̂ estimates it.
	release := j.Spec.Type == service.JobAnonymize || j.Spec.Type == service.JobFREDSweep
	for i := 0; i < t.NumRows(); i++ {
		v := t.Cell(i, sens[0])
		if release && !v.IsNull() {
			return fmt.Errorf("row %d publishes the sensitive value", i)
		}
		if !release {
			f, ok := v.Float()
			if !ok || math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("row %d has no sensitive estimate", i)
			}
		}
	}
	return nil
}

func digestMatches(body []byte, want string) bool {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:]) == want
}

// record is the determinism record a run leaves behind: later runs of the
// same build, workload, seed and length must reproduce it.
type record struct {
	Digests []string `json:"digests"`
	// Counts holds the exact accounting counts of one-client workloads.
	Counts map[string]int `json:"counts,omitempty"`
}

// compareRecord checks rec against an earlier run's record at path, or
// writes it when there is none. It returns the job indexes whose digests
// differ and a description of any count that differs.
func compareRecord(path string, rec record) (wrong []int, mismatch []string, err error) {
	prev, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		data, err := json.Marshal(rec)
		if err != nil {
			return nil, nil, err
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, nil, err
		}
		return nil, nil, os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return nil, nil, err
	}
	var old record
	if err := json.Unmarshal(prev, &old); err != nil {
		return nil, nil, fmt.Errorf("determinism record %s: %w", path, err)
	}
	wrong = diffDigests(old.Digests, rec.Digests)
	for k, v := range rec.Counts {
		if old.Counts[k] != v {
			mismatch = append(mismatch, fmt.Sprintf("%s %d, an earlier run %d", k, v, old.Counts[k]))
		}
	}
	sort.Strings(mismatch)
	return wrong, mismatch, nil
}

// diffDigests lists the indexes where two digest lists disagree.
func diffDigests(a, b []string) []int {
	var wrong []int
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			wrong = append(wrong, i)
		}
	}
	return wrong
}
