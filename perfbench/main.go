// Command perfbench is the repository's end-to-end benchmark. It boots the
// shipped service stack in-process — httpapi.Server over loopback TCP,
// service.Engine with served's default options, a durable diskstore in a
// temporary directory — and drives one closed-loop workload through the
// public REST API:
//
//	perfbench --workload sweep-cold --seed 1 --seconds 10 --trace 0
//
// It prints the runner fingerprint and a summary on the lines before the
// last, and one JSON result as the last line of standard output. --trace 0
// reports the end-to-end metrics; --trace 1 runs the workload untraced and
// then traced (timing decorators around the HTTP handler and the diskstore
// backend), replays the workload's levels through the kernels, and reports
// the per-layer metrics. README.md describes the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/service"
)

// runLimit bounds a whole run; past it the benchmark gives up without a
// result rather than overrun its caller's deadline.
const runLimit = 170 * time.Second

// An untraced run repeats its set-up and its reopen and reports their
// medians. Set-up runs 2 to 20 times before the timed phase and 1 to 21
// times after it, reopen 1 to 7 times, each until its time budget is spent:
// steps of tens of milliseconds get a steady median, and a reopen taking
// seconds is measured once.
var (
	untracedSetups = setupReps{
		before: reps{min: 2, max: 20, budget: time.Second},
		after:  reps{min: 1, max: 21, budget: time.Second},
	}
	untracedReopens = reps{min: 1, max: 7, budget: 4 * time.Second}
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: sweep-cold, jobs-small or sweep-reuse")
		seed    = flag.Int64("seed", 1, "seed the workload's tables and job list are generated from")
		seconds = flag.Int("seconds", 10, "nominal run length; sets the job count")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		state   = flag.String("state", ".bench_build/state", "directory for temporary data and determinism records")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	tmp := filepath.Join(*state, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	base, err := os.MkdirTemp(tmp, *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	timer := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s\n", runLimit)
		os.RemoveAll(base)
		os.Exit(3)
	})
	res, err := run(os.Stdout, *name, *seed, *seconds, *trace == 1, *state, base)
	timer.Stop()
	os.RemoveAll(base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run with its data directories under base and
// returns its result; out receives the fingerprint and summary lines.
func run(out io.Writer, name string, seed int64, seconds int, traced bool, state, base string) (*result, error) {
	fp := fingerprintOf(seed)
	line, _ := json.Marshal(map[string]any{"fingerprint": fp, "workload": name, "seconds": seconds, "trace": traced})
	fmt.Fprintln(out, string(line))

	w, err := buildWorkload(name, seed, seconds, runtime.NumCPU(), 1)
	if err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	var violations []string
	var p *passResult
	if !traced {
		if p, err = runPass(w, base, false, untracedSetups, untracedReopens); err != nil {
			return nil, err
		}
	} else {
		p0, err := runPass(w, filepath.Join(base, "untraced"), false, setupReps{before: once}, skip)
		if err != nil {
			return nil, err
		}
		if p, err = runPass(w, filepath.Join(base, "traced"), true, setupReps{before: once}, once); err != nil {
			return nil, err
		}
		for _, i := range diffDigests(p0.digests, p.digests) {
			p.fail(i, "job %d: traced output differs from the untraced pass", i)
		}
		res.Attempted += len(p0.outs)
		res.Failed += p0.failedJobs()
		violations = append(violations, p0.violations...)
		kr, err := kernelPass(w, p)
		if err != nil {
			return nil, err
		}
		layers := layerMetrics(w, p0, p, kr)
		ds, err := datasetPass(w)
		if err != nil {
			return nil, err
		}
		for k, v := range ds {
			layers[k] = v
		}
		for k, v := range layers {
			res.Metrics[k] = metric{Value: v, Unit: layerUnits[k]}
		}
	}

	violations = append(violations, p.invariants(w)...)
	rec := record{Digests: p.digests}
	if w.Clients == 1 {
		rec.Counts = p.counts(w)
	}
	exe, err := executableDigest()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(state, "records", fmt.Sprintf("%s-seed%d-s%d-%s.json", name, seed, seconds, exe[:16]))
	wrong, mismatch, err := compareRecord(path, rec)
	if err != nil {
		return nil, err
	}
	for _, i := range wrong {
		p.fail(i, "job %d: output differs from an earlier run of the same build and seed", i)
	}
	violations = append(violations, mismatch...)

	res.Attempted += len(p.outs)
	res.Failed += p.failedJobs()
	violations = append(violations, p.violations...)
	res.Correct = res.Failed == 0 && len(violations) == 0

	tail := p.tailPct()
	failRatio := float64(res.Failed) / float64(res.Attempted)
	if !traced {
		res.Metrics["jobs_per_s"] = metric{p.throughput(), "1/s"}
		res.Metrics["latency_p50_ms"] = metric{p.latencyAt(50), "ms"}
		res.Metrics["latency_tail_ms"] = metric{p.latencyAt(tail), "ms"}
		res.Metrics["setup_s"] = metric{median(p.setup), "s"}
		res.Metrics["heap_peak_mb"] = metric{p.heapPeakMB, "MB"}
		res.Metrics["recover_s"] = metric{median(p.recover), "s"}
	}
	summary, _ := json.Marshal(map[string]any{
		"jobs": len(p.outs), "latency_tail_percentile": tail, "fail_ratio": failRatio,
		"setup_s": p.setup, "recover_s": p.recover, "phases_s": p.phases, "workload_digest": w.fingerprint()[:16],
	})
	fmt.Fprintln(out, string(summary))
	for i, v := range violations {
		if i == 20 {
			fmt.Fprintf(out, "… and %d more check failures\n", len(violations)-20)
			break
		}
		fmt.Fprintln(out, "check failed:", v)
	}
	return res, nil
}

// invariants asserts the workload's defining properties.
func (p *passResult) invariants(w *workload) []string {
	var v []string
	c := p.counts(w)
	switch w.Name {
	case wlSweepCold:
		if c["cache_hits"] != 0 || c["warm_levels"] != 0 {
			v = append(v, fmt.Sprintf("sweep-cold must bypass the cache and the level index: %d cache hits, %d warm levels",
				c["cache_hits"], c["warm_levels"]))
		}
	case wlSweepReuse:
		if want := expectedCacheHits(w.Jobs, servedCache); c["cache_hits"] != want {
			v = append(v, fmt.Sprintf("sweep-reuse served %d jobs from cache, the job list repeats %d", c["cache_hits"], want))
		}
	}
	return v
}

// counts returns the run's exact accounting counts.
func (p *passResult) counts(w *workload) map[string]int {
	c := map[string]int{}
	for i := range p.outs {
		o := &p.outs[i]
		if o.Status.Cached {
			c["cache_hits"]++
		} else {
			c["warm_levels"] += o.WarmEvents
			if w.Jobs[i].Spec.Type == service.JobFREDSweep {
				c["levels_evaluated"] += int(o.Status.Summary["levels_evaluated"])
			}
		}
	}
	return c
}

// layerUnits names every per-layer metric a traced run reports, with its
// unit.
var layerUnits = map[string]string{
	"httpapi.submit_ms":                "ms",
	"httpapi.result_ms":                "ms",
	"httpapi.result_bytes_per_job":     "bytes",
	"httpapi.upload_ms_per_mb":         "ms/MB",
	"service.queue_wait_p50_ms":        "ms",
	"service.queue_wait_tail_ms":       "ms",
	"service.run_ms":                   "ms",
	"service.cache_hits":               "count",
	"service.cache_hit_ratio":          "ratio",
	"service.warm_levels":              "count",
	"service.warm_level_ratio":         "ratio",
	"service.untraced_ms":              "ms",
	"diskstore.wal_appends_per_job":    "count",
	"diskstore.wal_append_us":          "us",
	"diskstore.wal_syncs_per_job":      "count",
	"diskstore.wal_sync_ms":            "ms",
	"diskstore.wal_bytes_per_job":      "bytes",
	"diskstore.blob_put_ms":            "ms",
	"diskstore.blob_bytes_per_job":     "bytes",
	"diskstore.table_put_ms_per_mb":    "ms/MB",
	"diskstore.replay_s":               "s",
	"diskstore.blob_get_ms":            "ms",
	"planner.levels_evaluated":         "count",
	"planner.levels_evaluated_per_job": "count",
	"planner.eval_ratio":               "ratio",
	"microagg.anonymize_ms_per_level":  "ms",
	"microagg.allocs_per_level":        "count",
	"mondrian.anonymize_ms_per_level":  "ms",
	"mondrian.allocs_per_level":        "count",
	"fusion.attack_ms_per_level":       "ms",
	"metrics.utility_ms_per_level":     "ms",
	"core.level_ms":                    "ms",
	"core.level_remainder_ms":          "ms",
	"core.sweep_parallelism":           "ratio",
	"dataset.csv_parse_ms_per_mb":      "ms/MB",
	"dataset.csv_write_ms_per_mb":      "ms/MB",
	"dataset.snapshot_write_ms_per_mb": "ms/MB",
	"dataset.snapshot_read_ms_per_mb":  "ms/MB",
	"trace.overhead_jobs_per_s":        "1/s",
}

// tailPercentile is the highest of p99, p95, p90, p75 and p50 with at least
// ten samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fingerprint identifies the runner: only results with equal fingerprints
// (the seed aside) are comparable.
type fingerprint struct {
	CPU         string  `json:"cpu"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Seed        int64   `json:"seed"`
	CalibrateMS float64 `json:"calibrate_ms"`
}

func fingerprintOf(seed int64) fingerprint {
	return fingerprint{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: seed, CalibrateMS: calibrate(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// calibrate times a fixed single-threaded floating-point loop (median of
// five), a yardstick for normalizing results across runners.
func calibrate() float64 {
	times := make([]float64, 5)
	for r := range times {
		start := time.Now()
		x := 1.0
		for i := 0; i < 20_000_000; i++ {
			x = x*1.0000001 + 1e-9
		}
		times[r] = msOf(time.Since(start))
		if x == 0 {
			times[r] = -1
		}
	}
	return median(times)
}

// executableDigest identifies the build, so determinism records only
// compare runs of the same code.
func executableDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
