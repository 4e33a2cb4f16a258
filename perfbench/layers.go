package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/metrics"
	"repro/internal/microagg"
	"repro/internal/mondrian"
	"repro/internal/service"
)

const mb = 1 << 20

// layerSnap is a traced pass's layer counters, read right after the timed
// phase (and, for the replay fields, right after the traced reopen).
type layerSnap struct {
	submitN, submitNS       int64
	resultN, resultNS       int64
	resultBytes             int64
	uploadNS, uploadBytes   int64
	tablePutNS              int64
	blobPutN, blobPutNS     int64
	walAppendN, walAppendNS int64
	walSyncN, walSyncNS     int64
	walBytes, blobBytes     int64
	tableBytes              int64
	replayNS                int64
	blobGetN, blobGetNS     int64
}

func (l *layerSnap) capture(st *stack, walBefore int64) {
	h, b := st.handler, st.backend
	l.submitN, l.submitNS = h.submit.n.Load(), h.submit.ns.Load()
	l.resultN, l.resultNS = h.result.n.Load(), h.result.ns.Load()
	l.resultBytes = h.resultBytes.Load()
	l.uploadNS, l.uploadBytes = h.upload.ns.Load(), h.uploadBytes.Load()
	l.tablePutNS = b.tablePut.ns.Load()
	l.blobPutN, l.blobPutNS = b.blobPut.n.Load(), b.blobPut.ns.Load()
	l.walAppendN, l.walAppendNS = b.walAppend.n.Load(), b.walAppend.ns.Load()
	l.walSyncN, l.walSyncNS = b.walSync.n.Load(), b.walSync.ns.Load()
	l.walBytes = walBytes(st.dir) - walBefore
	l.blobBytes = dirBytes(filepath.Join(st.dir, "results"))
	l.tableBytes = dirBytes(filepath.Join(st.dir, "tables"))
}

// ratio is a/b, or 0 when b is 0 (the layer did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// levelKey names one distinct level of a workload: a table, an adversary
// (aux table and sensitive range), a scheme and k.
type levelKey struct {
	p, q   int
	scheme string
	lo, hi float64
	k      int
}

func keyOf(j jobDef, k int) levelKey {
	return levelKey{p: j.P, q: j.Q, scheme: j.Spec.Scheme, lo: j.Spec.SensitiveLo, hi: j.Spec.SensitiveHi, k: k}
}

// levelExpect is what the service returned for a level: a sweep's level
// numbers, or an attack job's before/after dissimilarities.
type levelExpect struct {
	level  *service.LevelSummary
	attack *[2]float64
}

// kernelResult is the kernel pass: single-threaded direct calls of the
// public kernels over a workload's distinct levels.
type kernelResult struct {
	levels                    int
	anonMS, anonAllocs, anonN map[string]float64 // by scheme
	attackMS, utilityMS       float64
	levelMS, partsSampledMS   float64
	levelN                    int
	parts                     map[levelKey]float64 // anonymize+attack+utility ms
	meanParts                 map[string]float64   // by scheme
}

func anonymizerFor(scheme string) core.Anonymizer {
	if scheme == "mondrian" {
		return mondrian.New()
	}
	return microagg.New()
}

// kernelPass replays up to w.KernelLevels of the distinct levels the pass's
// jobs computed (evenly spaced over their sorted list) through the public
// kernels, one call at a time, and checks the numbers bit for bit against
// what the service returned. Every fourth replayed level also runs
// core.SweepContext.RunLevel whole.
func kernelPass(w *workload, p *passResult) (*kernelResult, error) {
	expect := map[levelKey]levelExpect{}
	for i := range p.outs {
		o := &p.outs[i]
		if o.Err != "" {
			continue
		}
		j := w.Jobs[i]
		switch j.Spec.Type {
		case service.JobFREDSweep:
			for li := range o.Status.Levels {
				l := o.Status.Levels[li]
				expect[keyOf(j, l.K)] = levelExpect{level: &l}
			}
		case service.JobAttack:
			expect[keyOf(j, j.Spec.K)] = levelExpect{attack: &[2]float64{o.Status.Summary["before"], o.Status.Summary["after"]}}
		default:
			if _, ok := expect[keyOf(j, j.Spec.K)]; !ok {
				expect[keyOf(j, j.Spec.K)] = levelExpect{}
			}
		}
	}
	keys := make([]levelKey, 0, len(expect))
	for k := range expect {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		x, y := keys[a], keys[b]
		if x.p != y.p {
			return x.p < y.p
		}
		if x.lo != y.lo {
			return x.lo < y.lo
		}
		if x.scheme != y.scheme {
			return x.scheme < y.scheme
		}
		return x.k < y.k
	})
	if n := w.KernelLevels; len(keys) > n {
		sample := make([]levelKey, n)
		for i := range sample {
			sample[i] = keys[i*len(keys)/n]
		}
		keys = sample
	}

	tables := map[int]*dataset.Table{}
	table := func(i int) (*dataset.Table, error) {
		if t, ok := tables[i]; ok {
			return t, nil
		}
		t, err := dataset.ReadCSV(bytes.NewReader(w.Tables[i].CSV))
		tables[i] = t
		return t, err
	}
	type advKey struct {
		p, q   int
		lo, hi float64
	}
	contexts := map[advKey]*core.SweepContext{}

	kr := &kernelResult{
		levels: len(keys), anonMS: map[string]float64{}, anonAllocs: map[string]float64{},
		anonN: map[string]float64{}, parts: map[levelKey]float64{}, meanParts: map[string]float64{},
	}
	var ms runtime.MemStats
	for idx, key := range keys {
		pt, err := table(key.p)
		if err != nil {
			return nil, err
		}
		ak := advKey{key.p, key.q, key.lo, key.hi}
		sc := contexts[ak]
		if sc == nil {
			qt, err := table(key.q)
			if err != nil {
				return nil, err
			}
			sc = core.NewSweepContext(pt, core.AttackConfig{
				Aux: qt, Estimator: fusion.NewFuzzy(), SensitiveRange: fusion.Range{Lo: key.lo, Hi: key.hi},
			})
			contexts[ak] = sc
		}
		anon := anonymizerFor(key.scheme)

		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		t0 := time.Now()
		out, err := anon.Anonymize(pt, key.k)
		anonD := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("kernel pass %+v: %w", key, err)
		}
		runtime.ReadMemStats(&ms)
		allocs := ms.Mallocs - mallocs
		release := out.WithSuppressed(out.Schema().IndicesOf(dataset.Sensitive)...)
		t1 := time.Now()
		_, before, after, err := sc.Attack(release)
		atkD := time.Since(t1)
		if err != nil {
			return nil, fmt.Errorf("kernel pass %+v: %w", key, err)
		}
		t2 := time.Now()
		util, err := metrics.Utility(release, key.k)
		utilD := time.Since(t2)
		if err != nil {
			return nil, fmt.Errorf("kernel pass %+v: %w", key, err)
		}
		parts := msOf(anonD + atkD + utilD)
		kr.anonMS[key.scheme] += msOf(anonD)
		kr.anonAllocs[key.scheme] += float64(allocs)
		kr.anonN[key.scheme]++
		kr.attackMS += msOf(atkD)
		kr.utilityMS += msOf(utilD)
		kr.parts[key] = parts
		kr.meanParts[key.scheme] += parts

		got := core.LevelResult{K: key.k, Before: before, After: after, Gain: metrics.InformationGain(before, after), Utility: util}
		if err := expect[key].matches(got); err != nil {
			p.fail(-1, "kernel pass %+v: %v", key, err)
		}
		if idx%4 == 0 {
			t3 := time.Now()
			lr, err := sc.RunLevel(anon, key.k, 0)
			levelD := time.Since(t3)
			if err != nil {
				return nil, fmt.Errorf("kernel pass RunLevel %+v: %w", key, err)
			}
			if err := expect[key].matches(lr); err != nil {
				p.fail(-1, "kernel pass RunLevel %+v: %v", key, err)
			}
			kr.levelMS += msOf(levelD)
			kr.partsSampledMS += parts
			kr.levelN++
		}
	}
	for s, n := range kr.anonN {
		kr.meanParts[s] /= n
	}
	return kr, nil
}

// matches compares kernel numbers with the service's, bit for bit.
func (e levelExpect) matches(lr core.LevelResult) error {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if l := e.level; l != nil {
		if !same(l.Before, lr.Before) || !same(l.After, lr.After) || !same(l.Gain, lr.Gain) || !same(l.Utility, lr.Utility) {
			return fmt.Errorf("service level (%v, %v, %v) ≠ kernel (%v, %v, %v)",
				l.Before, l.After, l.Utility, lr.Before, lr.After, lr.Utility)
		}
	}
	if a := e.attack; a != nil && (!same(a[0], lr.Before) || !same(a[1], lr.After)) {
		return fmt.Errorf("service attack (%v, %v) ≠ kernel (%v, %v)", a[0], a[1], lr.Before, lr.After)
	}
	return nil
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// datasetPass times the table codecs on the workload's input tables, up to
// 24 MB of CSV.
func datasetPass(w *workload) (map[string]float64, error) {
	var csvBytes, snapBytes float64
	var parse, write, snapW, snapR time.Duration
	for _, t := range w.Tables {
		if csvBytes > 24*mb {
			break
		}
		t0 := time.Now()
		tab, err := dataset.ReadCSV(bytes.NewReader(t.CSV))
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		var out bytes.Buffer
		if err := dataset.WriteCSV(&out, tab); err != nil {
			return nil, err
		}
		t2 := time.Now()
		var snap bytes.Buffer
		if err := tab.WriteSnapshot(&snap); err != nil {
			return nil, err
		}
		t3 := time.Now()
		if _, err := dataset.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
			return nil, err
		}
		t4 := time.Now()
		parse += t1.Sub(t0)
		write += t2.Sub(t1)
		snapW += t3.Sub(t2)
		snapR += t4.Sub(t3)
		csvBytes += float64(len(t.CSV))
		snapBytes += float64(snap.Len())
	}
	return map[string]float64{
		"dataset.csv_parse_ms_per_mb":      msOf(parse) / (csvBytes / mb),
		"dataset.csv_write_ms_per_mb":      msOf(write) / (csvBytes / mb),
		"dataset.snapshot_write_ms_per_mb": msOf(snapW) / (snapBytes / mb),
		"dataset.snapshot_read_ms_per_mb":  msOf(snapR) / (snapBytes / mb),
	}, nil
}

// layerMetrics assembles the per-layer metrics of a traced run: p0 is its
// untraced pass, p1 the traced one.
func layerMetrics(w *workload, p0, p1 *passResult, kr *kernelResult) map[string]float64 {
	l := p1.layers
	jobs := float64(len(p1.outs))
	m := map[string]float64{}

	m["httpapi.submit_ms"] = ratio(float64(l.submitNS)/1e6, float64(l.submitN))
	m["httpapi.result_ms"] = ratio(float64(l.resultNS)/1e6, float64(l.resultN))
	m["httpapi.result_bytes_per_job"] = float64(l.resultBytes) / jobs
	m["httpapi.upload_ms_per_mb"] = ratio(float64(l.uploadNS)/1e6, float64(l.uploadBytes)/mb)

	var waits []float64
	var waitSum, runSum, latSum float64
	var runN, cached, levelEvents, warm float64
	var sweeps, evaluated, requested, busy, sweepRun float64
	for i := range p1.outs {
		o := &p1.outs[i]
		st := o.Status
		latSum += msOf(o.Latency)
		if st.Cached {
			cached++
		}
		if st.Started != nil && st.Finished != nil {
			wait := msOf(st.Started.Sub(st.Created))
			run := msOf(st.Finished.Sub(*st.Started))
			waits = append(waits, wait)
			waitSum += wait
			runSum += run
			runN++
			levelEvents += float64(o.LevelEvents)
			warm += float64(o.WarmEvents)
		}
		j := w.Jobs[i]
		if j.Spec.Type == service.JobFREDSweep {
			sweeps++
			requested += float64(requestedLevels(j.Spec))
			if !st.Cached && st.Started != nil && st.Finished != nil {
				evaluated += st.Summary["levels_evaluated"]
				sweepRun += msOf(st.Finished.Sub(*st.Started))
				for _, k := range o.ComputedKs {
					if d, ok := kr.parts[keyOf(j, k)]; ok {
						busy += d
					} else {
						busy += kr.meanParts[j.Spec.Scheme]
					}
				}
			}
		}
	}
	m["service.queue_wait_p50_ms"] = percentile(waits, 50)
	m["service.queue_wait_tail_ms"] = percentile(waits, p1.tailPct())
	m["service.run_ms"] = ratio(runSum, runN)
	m["service.cache_hits"] = cached
	m["service.cache_hit_ratio"] = cached / jobs
	m["service.warm_levels"] = warm
	m["service.warm_level_ratio"] = ratio(warm, levelEvents)
	m["service.untraced_ms"] = (latSum-waitSum-runSum)/jobs - m["httpapi.submit_ms"] - m["httpapi.result_ms"]

	m["diskstore.wal_appends_per_job"] = float64(l.walAppendN) / jobs
	m["diskstore.wal_append_us"] = ratio(float64(l.walAppendNS)/1e3, float64(l.walAppendN))
	m["diskstore.wal_syncs_per_job"] = float64(l.walSyncN) / jobs
	m["diskstore.wal_sync_ms"] = ratio(float64(l.walSyncNS)/1e6, float64(l.walSyncN))
	m["diskstore.wal_bytes_per_job"] = float64(l.walBytes) / jobs
	m["diskstore.blob_put_ms"] = ratio(float64(l.blobPutNS)/1e6, float64(l.blobPutN))
	m["diskstore.blob_bytes_per_job"] = float64(l.blobBytes) / jobs
	m["diskstore.table_put_ms_per_mb"] = ratio(float64(l.tablePutNS)/1e6, float64(l.tableBytes)/mb)
	m["diskstore.replay_s"] = float64(l.replayNS) / 1e9
	m["diskstore.blob_get_ms"] = ratio(float64(l.blobGetNS)/1e6, float64(l.blobGetN))

	m["planner.levels_evaluated"] = evaluated
	m["planner.levels_evaluated_per_job"] = ratio(evaluated, sweeps)
	m["planner.eval_ratio"] = ratio(evaluated, requested)

	m["microagg.anonymize_ms_per_level"] = ratio(kr.anonMS["mdav"], kr.anonN["mdav"])
	m["microagg.allocs_per_level"] = ratio(kr.anonAllocs["mdav"], kr.anonN["mdav"])
	m["mondrian.anonymize_ms_per_level"] = ratio(kr.anonMS["mondrian"], kr.anonN["mondrian"])
	m["mondrian.allocs_per_level"] = ratio(kr.anonAllocs["mondrian"], kr.anonN["mondrian"])
	m["fusion.attack_ms_per_level"] = ratio(kr.attackMS, float64(kr.levels))
	m["metrics.utility_ms_per_level"] = ratio(kr.utilityMS, float64(kr.levels))
	m["core.level_ms"] = ratio(kr.levelMS, float64(kr.levelN))
	m["core.level_remainder_ms"] = ratio(kr.levelMS-kr.partsSampledMS, float64(kr.levelN))
	m["core.sweep_parallelism"] = ratio(busy, sweepRun)

	m["trace.overhead_jobs_per_s"] = p1.throughput() - p0.throughput()
	return m
}
