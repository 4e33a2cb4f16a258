package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/dataset"
	"repro/internal/microagg"
	"repro/internal/service"
)

// smokeScale shrinks every table so a whole workload runs in seconds.
const smokeScale = 0.05

func TestSameSeedSameJobList(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 7, 1, 2, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildWorkload(name, 7, 1, 2, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildWorkload(name, 8, 1, 2, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		if a.fingerprint() != b.fingerprint() {
			t.Errorf("%s: seed 7 generated two different job lists", name)
		}
		if a.fingerprint() == c.fingerprint() {
			t.Errorf("%s: seeds 7 and 8 generated the same job list", name)
		}
	}
}

// TestWorkloadSmoke runs every workload end to end on small tables, once
// untraced and once traced, and requires clean checks and every per-layer
// metric.
func TestWorkloadSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := buildWorkload(name, 3, 1, 2, smokeScale)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			p0, err := runPass(w, filepath.Join(dir, "untraced"), false, untracedSetups, once)
			if err != nil {
				t.Fatal(err)
			}
			p1, err := runPass(w, filepath.Join(dir, "traced"), true, setupReps{before: once}, once)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*passResult{p0, p1} {
				if n := p.failedJobs(); n != 0 || len(p.violations) != 0 {
					t.Fatalf("%d failed jobs, violations: %v", n, p.violations)
				}
				if v := p.invariants(w); len(v) != 0 {
					t.Fatalf("invariants: %v", v)
				}
			}
			if d := diffDigests(p0.digests, p1.digests); len(d) != 0 {
				t.Fatalf("traced outputs differ from untraced at jobs %v", d)
			}
			kr, err := kernelPass(w, p1)
			if err != nil {
				t.Fatal(err)
			}
			if len(p1.violations) != 0 {
				t.Fatalf("kernel pass: %v", p1.violations)
			}
			layers := layerMetrics(w, p0, p1, kr)
			ds, err := datasetPass(w)
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range ds {
				layers[k] = v
			}
			for k := range layerUnits {
				if _, ok := layers[k]; !ok {
					t.Errorf("per-layer metric %s not reported", k)
				}
			}
			if len(layers) != len(layerUnits) {
				t.Errorf("%d per-layer metrics reported, %d declared", len(layers), len(layerUnits))
			}
		})
	}
}

func TestFlippedBitFailsOutputCheck(t *testing.T) {
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 1, N: 60, DirectAux: true})
	if err != nil {
		t.Fatal(err)
	}
	anon, err := microagg.New().Anonymize(sc.P, 3)
	if err != nil {
		t.Fatal(err)
	}
	rel := anon.WithSuppressed(anon.Schema().IndicesOf(dataset.Sensitive)...)
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, rel); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	sum := sha256.Sum256(body)
	want := hex.EncodeToString(sum[:])
	j := jobDef{Spec: service.Spec{Type: service.JobAnonymize, K: 3}}
	if err := checkBody(j, service.Status{}, body, want, 60); err != nil {
		t.Fatalf("intact result rejected: %v", err)
	}
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)/2] ^= 1
	if err := checkBody(j, service.Status{}, flipped, want, 60); err == nil {
		t.Fatal("a result with one flipped bit passed the output check")
	}

	// The same flip, seen in a later run's digest, marks exactly that job.
	o := outcome{BodyHash: want, Status: service.Status{Type: service.JobAnonymize, State: service.StateDone}}
	before := jobDigest(&o)
	fsum := sha256.Sum256(flipped)
	o.BodyHash = hex.EncodeToString(fsum[:])
	if got := diffDigests([]string{"a", before, "c"}, []string{"a", jobDigest(&o), "c"}); len(got) != 1 || got[0] != 1 {
		t.Fatalf("digest comparison flagged %v, want [1]", got)
	}
}

func TestRecordComparison(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.json")
	rec := record{Digests: []string{"x", "y"}, Counts: map[string]int{"cache_hits": 3}}
	if wrong, mm, err := compareRecord(path, rec); err != nil || wrong != nil || mm != nil {
		t.Fatalf("first record: %v %v %v", wrong, mm, err)
	}
	rec2 := record{Digests: []string{"x", "z"}, Counts: map[string]int{"cache_hits": 4}}
	wrong, mm, err := compareRecord(path, rec2)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrong) != 1 || wrong[0] != 1 || len(mm) != 1 {
		t.Fatalf("changed record: wrong %v, mismatches %v", wrong, mm)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{40, 75}, {99, 75}, {100, 90}, {200, 95}, {1000, 99}, {20, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
