package service_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/service"
	"repro/internal/service/diskstore"
)

// countingBackend counts GetBlob calls per content hash.
type countingBackend struct {
	service.TableBackend
	mu   sync.Mutex
	gets map[string]int
}

func (c *countingBackend) GetBlob(hash string) (*dataset.Table, error) {
	c.mu.Lock()
	c.gets[hash]++
	c.mu.Unlock()
	return c.TableBackend.GetBlob(hash)
}

// openDiskPlane opens a disk-backed store and engine on dir, with the
// store's table backend wrapped by wrap. The engine is neither recovered
// nor started; stop closes the engine and releases the directory.
func openDiskPlane(t *testing.T, dir string, wrap func(service.TableBackend) service.TableBackend) (store *service.Store, e *service.Engine, stop func()) {
	t.Helper()
	ds, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store = service.NewStoreWith(wrap(ds))
	if err := store.Open(); err != nil {
		t.Fatal(err)
	}
	e = service.NewEngine(store, service.Options{Workers: 1, JobLog: ds})
	var once sync.Once
	stop = func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			e.Shutdown(ctx)
			ds.Close()
		})
	}
	t.Cleanup(stop)
	return store, e, stop
}

// TestRecoverReadsEachBlobOnce: done jobs sharing a result hash cost one
// blob read between them and recover sharing one table; a missing blob is
// also tried once, and every job naming it is reported in RecoveryErrors
// and comes back done without a result table.
func TestRecoverReadsEachBlobOnce(t *testing.T) {
	dir := t.TempDir()
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 30})
	if err != nil {
		t.Fatal(err)
	}
	store, e, stop := openDiskPlane(t, dir, func(b service.TableBackend) service.TableBackend { return b })
	pInfo, err := store.Put(service.DefaultTenant, "P", sc.P)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	e.Start()
	// Three runs of one spec (the repeats are cache hits sharing the first
	// run's result) and two of another.
	hashOf := make(map[string]string) // job → pre-restart result table hash
	for _, k := range []int{2, 2, 2, 5, 5} {
		st, err := e.Submit(service.DefaultTenant, service.Spec{Type: service.JobAnonymize, Table: pInfo.ID, K: k})
		if err != nil {
			t.Fatal(err)
		}
		if st = waitDone(t, e, st.ID); st.State != service.StateDone {
			t.Fatalf("job %s: state %s (%s), want done", st.ID, st.State, st.Error)
		}
		res, err := e.Result(service.DefaultTenant, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		h, err := service.HashTable(res.Table)
		if err != nil {
			t.Fatal(err)
		}
		hashOf[st.ID] = h
	}
	stop()
	shared, missing := hashOf["job-1"], hashOf["job-4"]
	if shared == missing {
		t.Fatal("k=2 and k=5 releases hash alike; the test needs two distinct blobs")
	}
	if err := os.Remove(filepath.Join(dir, "results", missing+".snap")); err != nil {
		t.Fatal(err)
	}

	counter := &countingBackend{gets: make(map[string]int)}
	_, e, _ = openDiskPlane(t, dir, func(b service.TableBackend) service.TableBackend {
		counter.TableBackend = b
		return counter
	})
	if _, err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	if len(counter.gets) != 2 || counter.gets[shared] != 1 || counter.gets[missing] != 1 {
		t.Fatalf("GetBlob calls per hash %v, want one for each of %s and %s", counter.gets, shared, missing)
	}

	var first *dataset.Table
	for _, id := range []string{"job-1", "job-2", "job-3"} {
		res, err := e.Result(service.DefaultTenant, id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Table == nil {
			t.Fatalf("%s recovered without its result table", id)
		}
		if first == nil {
			first = res.Table
		} else if res.Table != first {
			t.Fatalf("%s recovered its own copy of the shared result table", id)
		}
		if h, err := service.HashTable(res.Table); err != nil || h != hashOf[id] {
			t.Fatalf("%s: recovered table hashes to %s (%v), want %s", id, h, err, hashOf[id])
		}
	}
	for _, id := range []string{"job-4", "job-5"} {
		st, err := e.Job(service.DefaultTenant, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != service.StateDone {
			t.Fatalf("%s: state %s, want done", id, st.State)
		}
		if res, err := e.Result(service.DefaultTenant, id); err == nil && res.Table != nil {
			t.Fatalf("%s recovered a result table from a missing blob", id)
		}
	}
	errs := e.Stats().RecoveryErrors
	if len(errs) != 2 {
		t.Fatalf("RecoveryErrors = %v, want one entry per job naming the missing blob", errs)
	}
	for i, id := range []string{"job-4", "job-5"} {
		if prefix := id + ": result blob " + missing + ": "; !strings.HasPrefix(errs[i], prefix) {
			t.Errorf("RecoveryErrors[%d] = %q, want prefix %q", i, errs[i], prefix)
		}
	}
}

// describeStatus renders the recovery-relevant fields of a status; the
// finish time is reported only as present or absent, because a replayed
// cancel without its terminal record is stamped with the recovery time.
func describeStatus(st service.Status) string {
	ks := make([]int, len(st.Levels))
	for i, ls := range st.Levels {
		ks[i] = ls.K
	}
	return fmt.Sprintf("%s tenant=%s %s %s err=%q levels=%v progress=%g resumed=%v finished=%v",
		st.ID, st.Tenant, st.Type, st.State, st.Error, ks, st.Progress, st.Resumed, st.Finished != nil)
}

// describeFeed drains StreamAfter(after) for a terminal job and renders
// each event as kind, level and sequence number.
func describeFeed(t *testing.T, e *service.Engine, tenant, id string, after uint64) []string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ch, err := e.StreamAfter(ctx, tenant, id, after)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for ev := range ch {
		switch ev.Type {
		case service.EventLevel:
			out = append(out, fmt.Sprintf("level k=%d seq=%d", ev.Level.K, ev.Seq))
		case service.EventStatus:
			out = append(out, fmt.Sprintf("status %s seq=%d", ev.Status.State, ev.Seq))
		default:
			out = append(out, fmt.Sprintf("%s seq=%d", ev.Type, ev.Seq))
		}
	}
	return out
}

// TestRecoverCannedLogs replays a hand-written log through Recover and pins
// the statuses and event feeds it rebuilds for the log shapes a crash or an
// older build leaves behind: a journaled cancel without its terminal record
// (with a checkpoint that landed after the cancel), a checkpoint after a
// terminal record, a deleted job, records whose submission is missing, and
// a job record from before multi-tenancy.
func TestRecoverCannedLogs(t *testing.T) {
	created := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	finished := created.Add(time.Minute)
	sweep := &service.Spec{Type: service.JobFREDSweep, Table: "tbl-1", MinK: 2, MaxK: 6, SensitiveLo: 40000, SensitiveHi: 160000}
	anon := &service.Spec{Type: service.JobAnonymize, Table: "tbl-1", K: 2}
	level := func(seq uint64, id string, k int, progress float64) service.WALRecord {
		return service.WALRecord{
			Seq: seq, Kind: service.WALLevel, JobID: id, Progress: progress,
			Level: &service.LevelSummary{K: k, Before: 1, After: 0.5, Gain: 0.5, Utility: 1 / float64(k)},
		}
	}
	submit := func(seq uint64, id string, jobSeq int, tenant string, spec *service.Spec) service.WALRecord {
		return service.WALRecord{Seq: seq, Kind: service.WALJob, JobID: id, JobSeq: jobSeq, Tenant: tenant, Spec: spec, Created: &created}
	}
	terminal := func(seq uint64, id, tenant string, typ service.JobType, state service.JobState, errText string, ks ...int) service.WALRecord {
		st := &service.Status{ID: id, Tenant: tenant, Type: typ, State: state, Error: errText, Progress: 1, Created: created, Finished: &finished}
		for _, k := range ks {
			st.Levels = append(st.Levels, *level(0, id, k, 0).Level)
		}
		rec := service.WALRecord{Seq: seq, Kind: service.WALStatus, JobID: id, Status: st}
		if state == service.StateDone {
			rec.Result = &service.ResultRecord{Levels: st.Levels, OptimalK: ks[0]}
		}
		return rec
	}
	log := &fakeJobLog{records: []service.WALRecord{
		submit(1, "job-1", 1, service.DefaultTenant, sweep),
		level(2, "job-1", 2, 0.2),
		submit(3, "job-2", 2, service.DefaultTenant, sweep),
		level(4, "job-1", 3, 0.4),
		level(5, "job-2", 2, 0.2),
		{Seq: 6, Kind: service.WALCancel, JobID: "job-1"},
		level(7, "job-1", 4, 0.6), // in flight when the cancel landed
		terminal(8, "job-2", service.DefaultTenant, service.JobFREDSweep, service.StateDone, "", 2),
		level(9, "job-2", 3, 0.4), // after job-2's terminal record
		submit(10, "job-3", 3, service.DefaultTenant, anon),
		terminal(11, "job-3", service.DefaultTenant, service.JobAnonymize, service.StateFailed, "boom"),
		{Seq: 12, Kind: service.WALDelete, JobID: "job-3"},
		level(13, "job-9", 2, 0.2), // no submission record
		terminal(14, "job-9", service.DefaultTenant, service.JobFREDSweep, service.StateDone, "", 2),
		submit(15, "job-4", 4, "", anon), // written before multi-tenancy
		terminal(16, "job-4", "", service.JobAnonymize, service.StateFailed, "boom"),
	}}
	e := service.NewEngine(service.NewStore(), service.Options{Workers: 1, JobLog: log})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	})
	recovered, err := e.Recover()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, rj := range recovered {
		got = append(got, describeStatus(rj.Status))
	}
	want := []string{
		`job-1 tenant=default fred-sweep canceled err="canceled" levels=[2 3] progress=0 resumed=false finished=true`,
		`job-2 tenant=default fred-sweep done err="" levels=[2] progress=1 resumed=false finished=true`,
		`job-4 tenant=default anonymize failed err="boom" levels=[] progress=1 resumed=false finished=true`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("recovered statuses:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, id := range []string{"job-3", "job-9"} {
		if _, err := e.Job(service.DefaultTenant, id); err == nil {
			t.Errorf("%s was recovered; a deleted job and a job without its submission must be dropped", id)
		}
	}
	if seq := e.Stats().WALSeq; seq != 16 {
		t.Errorf("event seq restored to %d, want 16", seq)
	}

	feeds := []struct {
		id    string
		after uint64
		want  []string
	}{
		{"job-1", 0, []string{"level k=2 seq=2", "level k=3 seq=4", "status canceled seq=6"}},
		{"job-1", 2, []string{"level k=3 seq=4", "status canceled seq=6"}},
		{"job-2", 0, []string{"level k=2 seq=5", "status done seq=8"}},
		{"job-2", 5, []string{"status done seq=8"}},
		{"job-4", 0, []string{"status failed seq=16"}},
	}
	for _, f := range feeds {
		if got := describeFeed(t, e, service.DefaultTenant, f.id, f.after); strings.Join(got, "; ") != strings.Join(f.want, "; ") {
			t.Errorf("%s after %d: feed %q, want %q", f.id, f.after, got, f.want)
		}
	}
}
