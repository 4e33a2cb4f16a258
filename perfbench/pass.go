package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// passResult is everything one pass over a workload measured and checked.
type passResult struct {
	outs []outcome
	// walls holds each round's wall time.
	walls []time.Duration
	// setup and recover hold each repetition's seconds.
	setup, recover []float64
	heapPeakMB     float64
	// wrong marks jobs whose output failed a check; violations describes
	// every failed check, durability and invariants included.
	wrong      map[int]bool
	violations []string
	digests    []string
	// layers holds a traced pass's layer counters.
	layers layerSnap
	// phases records where the pass's wall time went, in seconds.
	phases map[string]float64
	mark   time.Time
}

// phase closes the current phase of the pass under name.
func (p *passResult) phase(name string) {
	now := time.Now()
	p.phases[name] += now.Sub(p.mark).Seconds()
	p.mark = now
}

func (p *passResult) fail(job int, format string, args ...any) {
	if job >= 0 {
		p.wrong[job] = true
	}
	p.violations = append(p.violations, fmt.Sprintf(format, args...))
}

// throughput is the median over rounds of jobs completed ÷ round wall time.
func (p *passResult) throughput() float64 {
	per := make([]float64, len(p.walls))
	for r, wall := range p.walls {
		lo, hi := roundBounds(len(p.outs), len(p.walls), r)
		done := 0
		for _, o := range p.outs[lo:hi] {
			if o.Err == "" {
				done++
			}
		}
		per[r] = float64(done) / wall.Seconds()
	}
	return median(per)
}

// latencyAt is the median over rounds of each round's pct-th percentile
// latency: a slow spell of the machine that spans less than half the rounds
// does not move it.
func (p *passResult) latencyAt(pct float64) float64 {
	per := make([]float64, len(p.walls))
	for r := range p.walls {
		lo, hi := roundBounds(len(p.outs), len(p.walls), r)
		per[r] = percentile(p.latencies(lo, hi), pct)
	}
	return median(per)
}

// tailPct is the tail percentile of a round of the pass.
func (p *passResult) tailPct() float64 {
	return tailPercentile(len(p.outs) / len(p.walls))
}

// latencies returns the latencies in ms of the completed jobs in [lo, hi).
func (p *passResult) latencies(lo, hi int) []float64 {
	var lat []float64
	for _, o := range p.outs[lo:hi] {
		if o.Err == "" {
			lat = append(lat, msOf(o.Latency))
		}
	}
	return lat
}

// failedJobs counts jobs that failed, were refused or produced wrong output.
func (p *passResult) failedJobs() int {
	n := 0
	for i, o := range p.outs {
		if o.Err != "" || p.wrong[i] {
			n++
		}
	}
	return n
}

// reps says how often a pass repeats its set-up and its reopen, so their
// medians are steady without letting a slow one dominate the run: at least
// min and at most max times, stopping after min once budget has been spent.
type reps struct {
	min, max int
	budget   time.Duration
}

func (r reps) more(done int, spent time.Duration) bool {
	return done < r.min || (done < r.max && spent < r.budget)
}

// once runs a step a single time; skip not at all (a pass that skips its
// reopen also skips the durability check).
var (
	once = reps{min: 1, max: 1}
	skip = reps{}
)

// setUp boots a stack on dir and uploads the workload's tables, timing
// both; it returns the serving stack and the table handles.
func (p *passResult) setUp(w *workload, dir string, traced bool) (*stack, []string, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	st, err := openStack(dir, traced)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := st.serve(w.Keys); err != nil {
		st.shutdown() //nolint:errcheck // the set-up already failed
		return nil, nil, 0, err
	}
	c := newClient(st.url, w.Clients)
	defer c.close()
	ids := make([]string, len(w.Tables))
	for i, t := range w.Tables {
		if ids[i], err = c.upload(t); err != nil {
			st.shutdown() //nolint:errcheck // the set-up already failed
			return nil, nil, 0, err
		}
	}
	d := time.Since(start)
	p.setup = append(p.setup, d.Seconds())
	return st, ids, d, nil
}

// setupReps splits a pass's set-ups into those before the timed phase and
// those after it.
type setupReps struct{ before, after reps }

// runPass boots the stack repeatedly (timing boot + upload; every boot but
// the last is torn down again), runs the job list once on the last boot,
// shuts it down gracefully, boots and uploads again a few times, and
// reopens copies of the run's data directory repeatedly (timing Store.Open
// + Engine.Recover). The last reopen serves the durability check.
func runPass(w *workload, base string, traced bool, setups setupReps, reopens reps) (*passResult, error) {
	p := &passResult{wrong: map[int]bool{}, phases: map[string]float64{}, mark: time.Now()}
	heads := make([][]byte, len(w.Tables))
	rows := make([]int, len(w.Tables))
	for i, t := range w.Tables {
		heads[i] = headerLines(t.CSV)
		rows[i] = t.Rows
	}

	// st is the stack under test, re a reopened one; whichever is still
	// open when the pass fails is shut down on the way out.
	var st, re *stack
	defer func() {
		for _, s := range []*stack{st, re} {
			if s != nil {
				s.shutdown() //nolint:errcheck // the pass has already failed or finished
			}
		}
	}()
	var ids []string
	var spent time.Duration
	for s := 0; ; s++ {
		var d time.Duration
		var err error
		st = nil
		if st, ids, d, err = p.setUp(w, filepath.Join(base, fmt.Sprintf("data-%d", s)), traced); err != nil {
			return nil, err
		}
		if spent += d; !setups.before.more(s+1, spent) {
			break
		}
		if err := st.shutdown(); err != nil {
			return nil, err
		}
		os.RemoveAll(st.dir)
	}

	p.phase("setup")
	walBefore := walBytes(st.dir)
	c := newClient(st.url, w.Clients)
	runtime.GC()
	hs := startHeapSampler()
	p.outs, p.walls = closedLoop(c, w, ids)
	p.heapPeakMB = hs.peakMB()
	if traced {
		p.layers.capture(st, walBefore)
	}

	p.phase("run")
	p.checkOutputs(w, heads, rows)
	retained, err := listJobs(c, w)
	if err != nil {
		return nil, err
	}
	c.close()
	if peak := c.conns.max(); peak > w.Clients {
		p.fail(-1, "%d client connections were open at once, the workload allows %d", peak, w.Clients)
	}
	if err := st.shutdown(); err != nil {
		return nil, fmt.Errorf("graceful shutdown: %w", err)
	}
	// Drop the closed stack, so each timed reopen starts from a heap that
	// holds only the client's records.
	dataDir := st.dir
	st, c = nil, nil
	p.phase("check_shutdown")

	// The rest of the set-ups run now, half a run after the first ones, so
	// their median spans the machine's slow and quick spells.
	spent = 0
	for s := 0; setups.after.more(s, spent); s++ {
		extra, _, d, err := p.setUp(w, filepath.Join(base, fmt.Sprintf("data-after-%d", s)), false)
		if err != nil {
			return nil, err
		}
		spent += d
		err = extra.shutdown()
		os.RemoveAll(extra.dir)
		if err != nil {
			return nil, err
		}
	}

	p.phase("setup")
	if reopens.max == 0 {
		return p, nil
	}
	spent = 0
	for r := 0; ; r++ {
		dir := filepath.Join(base, fmt.Sprintf("reopen-%d", r))
		if err := copyDir(dataDir, dir); err != nil {
			return nil, err
		}
		re = nil
		runtime.GC()
		start := time.Now()
		re, err = openStack(dir, traced)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		d := time.Since(start)
		p.recover = append(p.recover, d.Seconds())
		spent += d
		if !reopens.more(r+1, spent) {
			break
		}
		if err := re.shutdown(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
	}
	if traced {
		p.layers.replayNS = re.backend.walReplay.ns.Load()
		p.layers.blobGetN = re.backend.blobGet.n.Load()
		p.layers.blobGetNS = re.backend.blobGet.ns.Load()
	}
	if err := re.serve(w.Keys); err != nil {
		return nil, err
	}
	c = newClient(re.url, runtime.NumCPU())
	p.phase("reopen")
	err = p.checkDurability(c, w, retained, rows, runtime.NumCPU())
	c.close()
	if serr := re.shutdown(); err == nil {
		err = serr
	}
	p.phase("durability")
	return p, err
}

// headerLines returns the two CSV header lines of a payload.
func headerLines(csv []byte) []byte {
	n := 0
	for i, b := range csv {
		if b == '\n' {
			if n++; n == 2 {
				return append([]byte(nil), csv[:i+1]...)
			}
		}
	}
	return append([]byte(nil), csv...)
}

// checkOutputs runs the per-job output checks and the repeat-consistency
// check, and fills p.digests.
func (p *passResult) checkOutputs(w *workload, heads [][]byte, rows []int) {
	first := map[string]int{}
	p.digests = make([]string, len(p.outs))
	for i := range p.outs {
		o := &p.outs[i]
		if o.Err != "" {
			p.violations = append(p.violations, fmt.Sprintf("job %d: %s", i, o.Err))
			continue
		}
		if err := checkOutcome(w.Jobs[i], o, heads, rows); err != nil {
			p.fail(i, "job %d (%s): %v", i, o.ID, err)
		}
		p.digests[i] = jobDigest(o)
		key := w.Jobs[i].specKey()
		if f, ok := first[key]; !ok {
			first[key] = i
		} else if p.digests[f] != "" && p.digests[f] != p.digests[i] {
			p.fail(i, "job %d repeats job %d's spec but its output differs", i, f)
		}
	}
}

// listJobs returns the job IDs each API key's tenant still lists: the jobs
// inside the service's retention window.
func listJobs(c *apiClient, w *workload) (map[string]service.JobState, error) {
	keys := []string{""}
	if w.Keys != nil {
		keys = keys[:0]
		for k := range w.Keys {
			keys = append(keys, k)
		}
	}
	out := map[string]service.JobState{}
	for _, k := range keys {
		var list struct{ Jobs []service.Status }
		if err := c.getJSON("/v1/jobs", k, &list); err != nil {
			return nil, err
		}
		for _, s := range list.Jobs {
			out[k+"|"+s.ID] = s.State
		}
	}
	return out, nil
}

// checkDurability verifies the reopened service: every job the client saw
// done that was still retained at shutdown is restored as done, and its
// result digests to the bytes the client downloaded; the reopened service
// lists exactly the retained jobs. Each distinct result body is also parsed
// and checked whole here, off the clock.
func (p *passResult) checkDurability(c *apiClient, w *workload, retained map[string]service.JobState, rows []int, conns int) error {
	after, err := listJobs(c, w)
	if err != nil {
		return err
	}
	if len(after) != len(retained) {
		p.fail(-1, "reopened service lists %d jobs, %d were retained at shutdown", len(after), len(retained))
	}
	var todo []int
	for i := range p.outs {
		id := w.Jobs[i].Key + "|" + p.outs[i].ID
		if p.outs[i].Err != "" || retained[id] != service.StateDone {
			continue
		}
		if after[id] != service.StateDone {
			p.fail(i, "job %d (%s) was done before the restart, is %q after", i, p.outs[i].ID, after[id])
			continue
		}
		todo = append(todo, i)
	}
	// The checks are off the clock, so they use every allowed connection.
	var mu sync.Mutex
	parsed := map[string]bool{}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if n >= len(todo) {
					return
				}
				i := todo[n]
				o, j := &p.outs[i], w.Jobs[i]
				body, err := c.fetchResult(j.Key, o.ID)
				mu.Lock()
				first := !parsed[o.BodyHash]
				parsed[o.BodyHash] = true
				mu.Unlock()
				switch {
				case err != nil:
				case first:
					// Each distinct body is parsed and checked whole once.
					err = checkBody(j, o.Status, body, o.BodyHash, rows[j.P])
				case !digestMatches(body, o.BodyHash):
					err = fmt.Errorf("result differs from the bytes the run downloaded")
				}
				if err != nil {
					mu.Lock()
					p.fail(i, "job %d (%s) after the restart: %v", i, o.ID, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return nil
}
