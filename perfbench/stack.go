package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/diskstore"
)

// The shipped daemon's defaults (cmd/served flags), so the benchmark boots
// the stack an operator gets from `served -data-dir`.
const (
	servedCache       = 64
	servedLevelIndex  = 32
	servedQueue       = 256
	servedMaxPending  = 64
	servedRetain      = 512
	servedRetainEvs   = 256
	servedWALRotate   = 4 << 20
	servedDrainBudget = 30 * time.Second
)

// stack is one in-process instance of the service: diskstore under a data
// directory, the job engine, and the REST API on a loopback listener.
type stack struct {
	dir      string
	ds       *diskstore.Store
	backend  *timedBackend // nil when untraced
	handler  *timedHandler // nil when untraced
	store    *service.Store
	engine   *service.Engine
	registry *obs.Registry
	tracer   *obs.Tracer
	srv      *http.Server
	url      string
	served   chan error
	closed   bool
}

// openStack opens (or reopens) dir and recovers the engine. It returns once
// Engine.Recover has returned; the engine is not started and nothing is
// served yet, so the caller can time exactly the open + recover window.
func openStack(dir string, traced bool) (*stack, error) {
	registry := obs.NewRegistry()
	tracer := obs.NewTracer(obs.DefaultTraceCapacity)
	ds, err := diskstore.Open(dir, diskstore.WithMetrics(registry), diskstore.WithWALRotation(servedWALRotate, 0))
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir, ds: ds, registry: registry, tracer: tracer}
	var tb service.TableBackend = ds
	var jb service.JobBackend = ds
	if traced {
		st.backend = &timedBackend{ds: ds}
		tb, jb = st.backend, st.backend
	}
	st.store = service.NewStoreWith(tb)
	if err := st.store.Open(); err != nil {
		ds.Close()
		return nil, fmt.Errorf("load tables: %w", err)
	}
	// served's option wiring, with its flag defaults and no keys file.
	st.engine = service.NewEngine(st.store, service.Options{
		Workers:             runtime.NumCPU(),
		QueueDepth:          servedQueue,
		MaxPendingPerTenant: servedMaxPending,
		MaxJobEvents:        servedRetainEvs,
		CacheSize:           servedCache,
		LevelIndexSize:      servedLevelIndex,
		MaxFinishedJobs:     servedRetain,
		JobLog:              jb,
		Quotas:              &service.Quotas{},
		Metrics:             registry,
		Tracer:              tracer,
		// Info-level lines are formatted as in the daemon but discarded, so
		// the benchmark's output stays readable.
		Logger: obs.NewLogger(io.Discard, slog.LevelInfo),
	})
	if _, err := st.engine.Recover(); err != nil {
		ds.Close()
		return nil, fmt.Errorf("recover job log: %w", err)
	}
	return st, nil
}

// serve starts the worker pool and the REST API on a loopback port.
func (st *stack) serve(keys map[string]string) error {
	st.engine.Start()
	opts := []httpapi.Option{httpapi.WithMetrics(st.registry), httpapi.WithTracer(st.tracer)}
	if keys != nil {
		auth, err := httpapi.NewAuth(keys)
		if err != nil {
			return err
		}
		opts = append(opts, httpapi.WithAuth(auth))
	}
	var h http.Handler = httpapi.New(st.store, st.engine, obs.NewLogger(io.Discard, slog.LevelInfo), opts...)
	if st.backend != nil {
		st.handler = &timedHandler{next: h}
		h = st.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.url = "http://" + ln.Addr().String()
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	return nil
}

// shutdown is served's graceful shutdown: stop HTTP, drain the engine,
// close the data directory. Later calls do nothing.
func (st *stack) shutdown() error {
	if st.closed {
		return nil
	}
	st.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), servedDrainBudget)
	defer cancel()
	var errs []error
	if st.srv != nil {
		errs = append(errs, st.srv.Shutdown(ctx))
		if err := <-st.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		st.srv = nil
	}
	errs = append(errs, st.engine.Shutdown(ctx), st.ds.Close())
	return errors.Join(errs...)
}

// walBytes sums the WAL segment sizes; segments only grow or are added
// between compactions, so a difference of two calls is the bytes appended.
func walBytes(dir string) int64 {
	matches, _ := filepath.Glob(filepath.Join(dir, "jobs-*.wal"))
	var n int64
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error { //nolint:errcheck // best-effort size
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// copyDir copies a closed data directory, so every timed reopen recovers
// the same first-boot image. Snapshots (tables and result blobs) are
// hard-linked: diskstore writes them once, by rename, and never in place.
// Everything else — the WAL segments, the metadata — is copied.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		switch {
		case d.IsDir():
			return os.MkdirAll(target, 0o755)
		case filepath.Ext(path) == ".snap":
			return os.Link(path, target)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// opStat accumulates calls and busy time of one operation.
type opStat struct {
	n, ns atomic.Int64
}

func (o *opStat) since(t0 time.Time) { o.n.Add(1); o.ns.Add(int64(time.Since(t0))) }

// timedBackend forwards every TableBackend, JobBackend and BlobGC method to
// the diskstore and times the calls, so the storage layer is measured from
// outside without changing it.
type timedBackend struct {
	ds                            *diskstore.Store
	tablePut, blobPut, blobGet    opStat
	walAppend, walSync, walReplay opStat
}

func (b *timedBackend) PutTable(rec service.TableRecord) error {
	defer b.tablePut.since(time.Now())
	return b.ds.PutTable(rec)
}
func (b *timedBackend) DeleteTable(tenant, id string) error { return b.ds.DeleteTable(tenant, id) }
func (b *timedBackend) LoadTables() ([]service.TableRecord, error) {
	return b.ds.LoadTables()
}
func (b *timedBackend) PutBlob(hash string, t *dataset.Table) error {
	defer b.blobPut.since(time.Now())
	return b.ds.PutBlob(hash, t)
}
func (b *timedBackend) GetBlob(hash string) (*dataset.Table, error) {
	defer b.blobGet.since(time.Now())
	return b.ds.GetBlob(hash)
}
func (b *timedBackend) Durable() bool { return b.ds.Durable() }
func (b *timedBackend) AppendWAL(rec *service.WALRecord) error {
	defer b.walAppend.since(time.Now())
	return b.ds.AppendWAL(rec)
}
func (b *timedBackend) ReplayWAL(fn func(service.WALRecord) error) error {
	defer b.walReplay.since(time.Now())
	return b.ds.ReplayWAL(fn)
}
func (b *timedBackend) CompactWAL(recs []*service.WALRecord) error { return b.ds.CompactWAL(recs) }
func (b *timedBackend) SyncWAL() error {
	defer b.walSync.since(time.Now())
	return b.ds.SyncWAL()
}
func (b *timedBackend) ListBlobs() ([]service.BlobInfo, error) { return b.ds.ListBlobs() }
func (b *timedBackend) DeleteBlob(hash string) error           { return b.ds.DeleteBlob(hash) }

// timedHandler times the REST routes whose cost the per-layer metrics
// attribute: job submission, result download and table upload. Every other
// request passes through untouched (the event stream keeps its Flusher).
type timedHandler struct {
	next                   http.Handler
	submit, result, upload opStat
	resultBytes            atomic.Int64
	uploadBytes            atomic.Int64
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		defer h.submit.since(time.Now())
		h.next.ServeHTTP(w, r)
	case r.Method == http.MethodPost && r.URL.Path == "/v1/tables":
		body := &countingReader{r: r.Body}
		r.Body = body
		defer func(t0 time.Time) { h.upload.since(t0); h.uploadBytes.Add(body.n) }(time.Now())
		h.next.ServeHTTP(w, r)
	case r.Method == http.MethodGet && filepath.Base(r.URL.Path) == "result":
		cw := &countingWriter{ResponseWriter: w}
		defer func(t0 time.Time) { h.result.since(t0); h.resultBytes.Add(cw.n) }(time.Now())
		h.next.ServeHTTP(cw, r)
	default:
		h.next.ServeHTTP(w, r)
	}
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
func (c *countingReader) Close() error { return c.r.Close() }

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}
