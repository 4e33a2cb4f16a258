package repro

// The golden sweep test pins the exact bits of the Figures 4–7 series. The
// columnar data plane, the sweep context and the fuzzy fast paths are all
// required to be observationally invisible: any change to these numbers is a
// behavior change, not a refactor, and must be made deliberately by
// regenerating the golden file with -update-golden.

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_sweep.json from the current implementation")

// goldenLevel records one LevelResult with float fields as IEEE-754 bit
// patterns, so the comparison is bitwise, not tolerance-based.
type goldenLevel struct {
	K       int    `json:"k"`
	Before  uint64 `json:"before_bits"`
	After   uint64 `json:"after_bits"`
	Gain    uint64 `json:"gain_bits"`
	Utility uint64 `json:"utility_bits"`
}

func goldenPath() string { return filepath.Join("testdata", "golden_sweep.json") }

func computeGoldenLevels(t *testing.T) []goldenLevel {
	t.Helper()
	sc, err := UniversityScenario(ScenarioOptions{Seed: 42, N: 40})
	if err != nil {
		t.Fatal(err)
	}
	levels, err := sc.Sweep(2, 16, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]goldenLevel, len(levels))
	for i, lr := range levels {
		out[i] = goldenLevel{
			K:       lr.K,
			Before:  math.Float64bits(lr.Before),
			After:   math.Float64bits(lr.After),
			Gain:    math.Float64bits(lr.Gain),
			Utility: math.Float64bits(lr.Utility),
		}
	}
	return out
}

// TestGoldenSweepSeries verifies that core.Sweep over the seed generator
// produces a bitwise-identical LevelResult series to the recorded golden run.
func TestGoldenSweepSeries(t *testing.T) {
	got := computeGoldenLevels(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath()), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d levels)", goldenPath(), len(got))
		return
	}
	raw, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update-golden): %v", err)
	}
	var want []goldenLevel
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("sweep produced %d levels, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("level %d mismatch:\n got k=%d before=%016x after=%016x gain=%016x utility=%016x\nwant k=%d before=%016x after=%016x gain=%016x utility=%016x",
				i, got[i].K, got[i].Before, got[i].After, got[i].Gain, got[i].Utility,
				want[i].K, want[i].Before, want[i].After, want[i].Gain, want[i].Utility)
		}
	}
}

// TestGoldenSweepParallelMatches pins a four-worker Sweep to the same series —
// the concurrency must not change a single bit either.
func TestGoldenSweepParallelMatches(t *testing.T) {
	sc, err := UniversityScenario(ScenarioOptions{Seed: 42, N: 40})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := sc.Sweep(2, 16, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sc.Sweep(2, 16, nil, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("sequential %d levels, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if math.Float64bits(seq[i].After) != math.Float64bits(par[i].After) ||
			math.Float64bits(seq[i].Utility) != math.Float64bits(par[i].Utility) {
			t.Errorf("level %d: parallel sweep diverged from sequential", i)
		}
	}
}
