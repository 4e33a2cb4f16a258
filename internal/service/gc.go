package service

import (
	"errors"
	"fmt"
)

// This file implements garbage collection of content-addressed result blobs.
// Blobs are written by commit for every durable done job, before the status
// record naming them, and are shared by content, so nothing deletes them
// eagerly: Engine.Delete, retention eviction and WAL compaction all leave
// the blob space alone. GCBlobs is the
// reclaim path: it walks the backend's blob space and deletes every blob not
// reachable from (a) a job still in the engine's log, (b) a result-cache
// entry, or (c) a stored table's content hash (defensive: table snapshots
// live in a separate space, but a backend is free to unify them).

// BlobInfo describes one content-addressed blob in a backend's blob space.
type BlobInfo struct {
	Hash  string
	Bytes int64
}

// BlobGC is the optional TableBackend extension blob garbage collection
// requires. Backends that do not implement it (the in-memory ones) simply
// cannot leak blobs across restarts, so GCBlobs refuses with ErrNoBlobGC.
type BlobGC interface {
	// ListBlobs enumerates every blob currently stored.
	ListBlobs() ([]BlobInfo, error)
	// DeleteBlob removes one blob; deleting an absent blob is not an error.
	DeleteBlob(hash string) error
}

// ErrNoBlobGC is returned by GCBlobs when the table backend has no blob
// enumeration support.
var ErrNoBlobGC = errors.New("service: table backend does not support blob GC")

// GCReport summarizes one blob garbage-collection pass.
type GCReport struct {
	// DryRun reports that nothing was deleted.
	DryRun bool `json:"dry_run"`
	// Scanned is the number of blobs enumerated.
	Scanned int `json:"scanned"`
	// Live is the number of blobs referenced by a job, cache entry or table.
	Live int `json:"live"`
	// Reclaimed counts unreferenced blobs deleted (or, on a dry run, that
	// would have been deleted).
	Reclaimed int `json:"reclaimed"`
	// BytesReclaimed is their cumulative size.
	BytesReclaimed int64 `json:"bytes_reclaimed"`
	// Unreferenced lists the reclaimable hashes on a dry run.
	Unreferenced []string `json:"unreferenced,omitempty"`
}

// GCBlobs deletes every result blob unreferenced by live jobs, the result
// cache, or the stored tables. With dryRun it only reports what a real pass
// would delete. It is safe to run while the engine is serving: the live set
// is computed from the engine's own job log, which every reachable blob hash
// passes through (commit stores the record naming it before the job becomes
// terminal, and recovery restores it). A pass excludes commits (blobMu), so
// a blob can never be observed unreferenced while a job that will reference
// it is in flight.
func (e *Engine) GCBlobs(dryRun bool) (GCReport, error) {
	gc, ok := e.store.backend.(BlobGC)
	if !ok {
		return GCReport{}, ErrNoBlobGC
	}
	e.blobMu.Lock()
	defer e.blobMu.Unlock()
	live, err := e.liveBlobHashes()
	if err != nil {
		return GCReport{}, err
	}
	blobs, err := gc.ListBlobs()
	if err != nil {
		return GCReport{}, fmt.Errorf("service: list blobs: %w", err)
	}
	rep := GCReport{DryRun: dryRun, Scanned: len(blobs)}
	for _, b := range blobs {
		if live[b.Hash] {
			rep.Live++
			continue
		}
		if dryRun {
			rep.Unreferenced = append(rep.Unreferenced, b.Hash)
		} else if err := gc.DeleteBlob(b.Hash); err != nil {
			return rep, fmt.Errorf("service: delete blob %s: %w", b.Hash, err)
		}
		rep.Reclaimed++
		rep.BytesReclaimed += b.Bytes
	}
	e.metrics.gcRuns.With().Inc()
	if !dryRun {
		e.metrics.gcReclaimed.With().Add(float64(rep.Reclaimed))
		e.metrics.gcBytes.With().Add(float64(rep.BytesReclaimed))
	}
	e.logger.Info("blob gc pass",
		"dry_run", dryRun, "scanned", rep.Scanned, "live", rep.Live,
		"reclaimed", rep.Reclaimed, "bytes_reclaimed", rep.BytesReclaimed)
	return rep, nil
}

// liveBlobHashes computes the GC root set: every blob hash reachable from a
// job in the engine's log, a cached result's table, or a stored table.
func (e *Engine) liveBlobHashes() (map[string]bool, error) {
	live := make(map[string]bool)
	e.mu.RLock()
	jobs := make([]*job, 0, len(e.jobs))
	for _, j := range e.jobs {
		jobs = append(jobs, j)
	}
	e.mu.RUnlock()
	for _, j := range jobs {
		j.mu.Lock()
		if j.term != nil && j.term.Result != nil && j.term.Result.TableHash != "" {
			live[j.term.Result.TableHash] = true
		}
		j.mu.Unlock()
	}
	// Cached results hold their tables in memory; hashing them re-derives
	// the content address their blob (if any) lives under. Hash outside the
	// cache lock — fingerprinting a large table is not cheap.
	var tables []*Result
	e.cache.Each(func(res *Result) { tables = append(tables, res) })
	for _, res := range tables {
		if res.Table == nil {
			continue
		}
		h, err := HashTable(res.Table)
		if err != nil {
			return nil, fmt.Errorf("service: hash cached result: %w", err)
		}
		live[h] = true
	}
	// Stored tables' content hashes, defensively: table snapshots live in a
	// separate space under diskstore, but the reachability contract ("not
	// referenced by tables.json") must not depend on that layout.
	for _, info := range e.store.ListAll() {
		if info.Hash != "" {
			live[info.Hash] = true
		}
	}
	return live, nil
}
