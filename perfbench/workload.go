package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/mondrian"
	"repro/internal/service"
)

// The three workloads. Each is a fixed job list derived from the seed and
// the run length alone: the service under test only ever sees the uploaded
// tables and the submitted specs.
const (
	wlSweepCold  = "sweep-cold"
	wlJobsSmall  = "jobs-small"
	wlSweepReuse = "sweep-reuse"
)

var workloadNames = []string{wlSweepCold, wlJobsSmall, wlSweepReuse}

// tableDef is one uploaded table: its CSV payload and the API key it is
// uploaded under (empty on open-API workloads).
type tableDef struct {
	Name string
	Key  string
	Rows int
	CSV  []byte
}

// jobDef is one submission. Spec.Table and Spec.Aux are filled in from P and
// Q (indexes into workload.Tables) once the tables are uploaded.
type jobDef struct {
	Key  string
	P, Q int
	Spec service.Spec
}

// workload is a generated benchmark input.
type workload struct {
	Name    string
	Tables  []tableDef
	Jobs    []jobDef
	Clients int
	// Keys maps API keys to tenants; nil runs the API open, as the
	// single default tenant.
	Keys map[string]string
	// Rounds splits the job list into consecutive rounds; throughput and
	// latency percentiles are medians over rounds.
	Rounds int
	// KernelLevels caps the distinct levels the traced kernel pass replays.
	KernelLevels int
}

// jobRate is the nominal completion rate of each workload on a 2-CPU
// runner. A run's job count is rate × seconds, fixed before anything is
// measured, so two commits always do identical work for the same arguments.
var jobRate = map[string]float64{
	wlSweepCold:  3,
	wlJobsSmall:  600,
	wlSweepReuse: 2,
}

// minJobs keeps at least ten samples beyond the p75 in every run.
const minJobs = 40

// jobCount is the fixed job-list length of a run.
func jobCount(name string, seconds int) int {
	n := int(math.Ceil(jobRate[name] * float64(seconds)))
	if n < minJobs {
		n = minJobs
	}
	return n
}

// buildWorkload generates the named workload. scale shrinks table sizes for
// the benchmark's own smoke tests; runs use scale 1.
func buildWorkload(name string, seed int64, seconds int, nproc int, scale float64) (*workload, error) {
	switch name {
	case wlSweepCold:
		return buildSweepCold(seed, jobCount(name, seconds), nproc, scale)
	case wlJobsSmall:
		return buildJobsSmall(seed, jobCount(name, seconds), nproc, scale)
	case wlSweepReuse:
		return buildSweepReuse(seed, jobCount(name, seconds), scale)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// scenarioTables generates one university scenario (P and its row-aligned
// web-gathered Q) and encodes both as CSV.
func scenarioTables(seed int64, rows int, key, label string) (tableDef, tableDef, error) {
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: seed, N: rows, DirectAux: true})
	if err != nil {
		return tableDef{}, tableDef{}, err
	}
	var p, q bytes.Buffer
	if err := dataset.WriteCSV(&p, sc.P); err != nil {
		return tableDef{}, tableDef{}, err
	}
	if err := dataset.WriteCSV(&q, sc.Q); err != nil {
		return tableDef{}, tableDef{}, err
	}
	return tableDef{Name: label + "-P", Key: key, Rows: rows, CSV: p.Bytes()},
		tableDef{Name: label + "-Q", Key: key, Rows: rows, CSV: q.Bytes()}, nil
}

// spreadAt is the i-th term of a golden-ratio sequence over [lo, hi]: any
// run of consecutive jobs covers the size range evenly, so the total work
// does not depend on the seed.
func spreadAt(i, lo, hi int) int {
	f := math.Mod(float64(i)*0.6180339887498949, 1)
	return lo + int(f*float64(hi-lo))
}

func scaled(rows int, scale float64) int {
	r := int(float64(rows) * scale)
	if r < 60 {
		r = 60
	}
	return r
}

// The seed generates every table; the shape of each job list (schemes,
// sizes, types, levels, repeats) is fixed, so runs with different seeds do
// comparable work on different data.

// buildSweepCold: n exhaustive k=2..16 sweeps, every third one mondrian on
// ~20k rows and the others mdav on 2–4k rows, each on its own table so no
// two jobs share a cache key or a level key.
func buildSweepCold(seed int64, n, nproc int, scale float64) (*workload, error) {
	w := &workload{Name: wlSweepCold, Clients: nproc, Rounds: 1, KernelLevels: 240}
	for i := 0; i < n; i++ {
		scheme, rows := "mdav", spreadAt(i, 2000, 4000)
		if i%3 == 1 {
			scheme, rows = "mondrian", spreadAt(i, 18000, 22000)
		}
		p, q, err := scenarioTables(seed*10007+int64(i), scaled(rows, scale), "", fmt.Sprintf("cold%d", i))
		if err != nil {
			return nil, err
		}
		w.Tables = append(w.Tables, p, q)
		w.Jobs = append(w.Jobs, jobDef{P: 2 * i, Q: 2*i + 1, Spec: service.Spec{
			Type: service.JobFREDSweep, Scheme: scheme, MinK: 2, MaxK: 16,
			SensitiveLo: 40000, SensitiveHi: 160000,
		}})
	}
	return w, nil
}

// smallKinds is jobs-small's type cycle: 30% anonymize, 30% attack, 20%
// assess, 20% fred-sweep.
var smallKinds = []service.JobType{
	service.JobAnonymize, service.JobAttack, service.JobAssess, service.JobFREDSweep, service.JobAnonymize,
	service.JobAttack, service.JobAnonymize, service.JobAssess, service.JobAttack, service.JobFREDSweep,
}

// buildJobsSmall: two tenants with API keys, four ~500-row table pairs
// each, and a mix of anonymize/attack/assess at k=2..7 plus fred-sweep
// k=2..4, one in four on mondrian. Every fourth submission repeats one of
// the last 32; every other one is new, made distinct by its sensitive range.
func buildJobsSmall(seed int64, n, nproc int, scale float64) (*workload, error) {
	keyList := []string{"perfbench-key-alpha", "perfbench-key-beta"}
	w := &workload{
		Name: wlJobsSmall, Clients: nproc, Rounds: 6, KernelLevels: 240,
		Keys: map[string]string{keyList[0]: "alpha", keyList[1]: "beta"},
	}
	const pairsPerTenant = 4
	for t, key := range keyList {
		for i := 0; i < pairsPerTenant; i++ {
			idx := t*pairsPerTenant + i
			p, q, err := scenarioTables(seed*10007+int64(idx), scaled(spreadAt(idx, 450, 550), scale), key, fmt.Sprintf("small%d", idx))
			if err != nil {
				return nil, err
			}
			w.Tables = append(w.Tables, p, q)
		}
	}
	fresh := 0
	for i := 0; i < n; i++ {
		if i >= 32 && i%4 == 3 {
			w.Jobs = append(w.Jobs, w.Jobs[i-1-(i*7)%32])
			continue
		}
		tenant := fresh % 2
		pair := tenant*pairsPerTenant + (fresh/2)%pairsPerTenant
		scheme := "mdav"
		if fresh%8 == 3 || fresh%8 == 6 {
			scheme = "mondrian"
		}
		spec := service.Spec{
			Type: smallKinds[fresh%len(smallKinds)], Scheme: scheme,
			SensitiveLo: 40000 - 5*float64(fresh), SensitiveHi: 160000,
		}
		if spec.Type == service.JobFREDSweep {
			spec.MinK, spec.MaxK = 2, 4
		} else {
			spec.K = 2 + (fresh*5)%6
		}
		fresh++
		w.Jobs = append(w.Jobs, jobDef{Key: keyList[tenant], P: 2 * pair, Q: 2*pair + 1, Spec: spec})
	}
	return w, nil
}

// buildSweepReuse: one client, adaptive planner sweeps over K=2..64 on two
// 10⁵-row mondrian tables with an explicit Tu (the table's k=6 utility).
// Ranges, strides and k-sets overlap, and every third spec repeats an
// earlier one exactly.
func buildSweepReuse(seed int64, n int, scale float64) (*workload, error) {
	w := &workload{Name: wlSweepReuse, Clients: 1, Rounds: 1, KernelLevels: 32}
	var tu [2]float64
	for t := 0; t < 2; t++ {
		p, q, err := scenarioTables(seed*10007+int64(t), scaled(100000, scale), "", fmt.Sprintf("reuse%d", t))
		if err != nil {
			return nil, err
		}
		w.Tables = append(w.Tables, p, q)
		if tu[t], err = utilityAt(p, q, 6); err != nil {
			return nil, err
		}
	}
	fresh := 0
	for i := 0; i < n; i++ {
		if i >= 3 && i%3 == 2 {
			w.Jobs = append(w.Jobs, w.Jobs[i-1-(i/3)%4])
			continue
		}
		t := fresh % 2
		spec := service.Spec{
			Type: service.JobFREDSweep, Scheme: "mondrian", Adaptive: true,
			Tu: tu[t], SensitiveLo: 40000, SensitiveHi: 160000,
		}
		// Every selection contains k=6, whose utility is Tu itself, so the
		// candidate band is never empty.
		if fresh%4 == 3 {
			set := map[int]bool{6: true}
			for m := 1; len(set) < 6; m++ {
				set[2+(fresh*11+m*13)%63] = true
			}
			for k := range set {
				spec.KSet = append(spec.KSet, k)
			}
			sort.Ints(spec.KSet)
		} else {
			stride := 1 + (fresh/2)%4
			spec.MinK, spec.MaxK = 6-stride*((fresh/3)%(4/stride+1)), 32+(fresh*7)%33
			if stride > 1 {
				spec.Stride = stride
			}
		}
		fresh++
		w.Jobs = append(w.Jobs, jobDef{P: 2 * t, Q: 2*t + 1, Spec: spec})
	}
	return w, nil
}

// utilityAt computes a table's level-k utility with the public kernel, on
// the table exactly as the service will parse it from the uploaded CSV.
func utilityAt(p, q tableDef, k int) (float64, error) {
	pt, err := dataset.ReadCSV(bytes.NewReader(p.CSV))
	if err != nil {
		return 0, err
	}
	qt, err := dataset.ReadCSV(bytes.NewReader(q.CSV))
	if err != nil {
		return 0, err
	}
	sc := core.NewSweepContext(pt, core.AttackConfig{
		Aux: qt, Estimator: fusion.NewFuzzy(), SensitiveRange: fusion.Range{Lo: 40000, Hi: 160000},
	})
	lr, err := sc.RunLevel(mondrian.New(), k, 0)
	if err != nil {
		return 0, err
	}
	return lr.Utility, nil
}

// fingerprint digests the job list and every table payload; equal seeds
// must give equal fingerprints.
func (w *workload) fingerprint() string {
	h := sha256.New()
	for _, t := range w.Tables {
		fmt.Fprintf(h, "%s|%s|%d|", t.Name, t.Key, t.Rows)
		h.Write(t.CSV)
	}
	for _, j := range w.Jobs {
		fmt.Fprintf(h, "%s|%d|%d|%+v\n", j.Key, j.P, j.Q, j.Spec)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// specKey canonicalizes a job for repeat detection: the same tables and the
// same spec fields.
func (j jobDef) specKey() string {
	return fmt.Sprintf("%s|%d|%d|%+v", j.Key, j.P, j.Q, j.Spec)
}

// expectedCacheHits replays the job list through an LRU of the engine's
// cache capacity. With one client every job finishes before the next is
// submitted, so a job is served from cache exactly when its spec is still
// resident.
func expectedCacheHits(jobs []jobDef, capacity int) int {
	var lru []string // most recent last
	hits := 0
	for _, j := range jobs {
		k := j.specKey()
		found := -1
		for i, e := range lru {
			if e == k {
				found = i
				break
			}
		}
		if found >= 0 {
			hits++
			lru = append(lru[:found], lru[found+1:]...)
		} else if len(lru) == capacity {
			lru = lru[1:]
		}
		lru = append(lru, k)
	}
	return hits
}

// requestedLevels is the number of levels a sweep spec asks for.
func requestedLevels(sp service.Spec) int {
	if len(sp.KSet) > 0 {
		return len(sp.KSet)
	}
	stride := sp.Stride
	if stride < 1 {
		stride = 1
	}
	return (sp.MaxK-sp.MinK)/stride + 1
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
