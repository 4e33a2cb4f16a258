package service_test

import (
	"context"
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
