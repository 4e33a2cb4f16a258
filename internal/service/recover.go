package service

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/dataset"
)

// This file implements crash recovery: Engine.Recover folds the durable job
// log into jobs after Store.Open reloaded the tables, finishes terminal jobs
// (results included, via the table backend's blob space), compacts the log
// through CompactLog — the one writer of the live image, shared with online
// compaction — and re-submits interrupted jobs: fred-sweeps seeded with
// their checkpointed levels, which the planner adopts as Held seeds, so they
// continue instead of restarting. It also hosts the table TTL sweep, which
// consults the live-job set recovery re-established.

// RecoveredJob describes one job Engine.Recover restored or re-submitted.
type RecoveredJob struct {
	Status Status
	// Resumed reports that the job was interrupted by the crash and has
	// been re-submitted; for fred-sweeps with checkpointed levels the
	// re-run continues from the checkpoint instead of restarting.
	Resumed bool
}

// Recover rebuilds the engine from the job log. It must run after
// Store.Open and before Start and the first Submit: recovered jobs reclaim
// their original IDs, and re-submitted jobs are placed on the (not yet
// consumed) queue. The log is compacted to the live image before any job is
// re-submitted, so it does not grow across restarts. The returned slice
// describes every recovered job in submission order, re-submitted ones
// marked Resumed.
func (e *Engine) Recover() ([]RecoveredJob, error) {
	byID := make(map[string]*job)
	var maxSeq uint64
	var maxJobSeq int
	err := e.opts.JobLog.ReplayWAL(func(rec WALRecord) error {
		if rec.Ver > walSpecVersion {
			// A log written by a newer build: its spec vocabulary may carry
			// fields this build would silently drop, turning a resumed job
			// into a different job. Refuse loudly.
			return fmt.Errorf("record %d has spec version %d, this build understands ≤ %d",
				rec.Seq, rec.Ver, walSpecVersion)
		}
		maxSeq = max(maxSeq, rec.Seq)
		switch rec.Kind {
		case WALMark:
			// Compaction high-water marker: restore the counters even though
			// the records that produced them are gone.
			maxJobSeq = max(maxJobSeq, rec.JobSeq)
		case WALJob:
			maxJobSeq = max(maxJobSeq, rec.JobSeq)
			if rec.Spec != nil && rec.Spec.Type != "" {
				byID[rec.JobID] = replayedSubmission(rec)
			}
		case WALDelete:
			delete(byID, rec.JobID)
		default:
			// A record without its submission (e.g. the job record itself
			// was the torn final line, or the job was deleted) is dropped.
			if j := byID[rec.JobID]; j != nil {
				j.replay(rec)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("service: replay job log: %w", err)
	}

	jobs := make([]*job, 0, len(byID))
	for _, j := range byID {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	e.mu.Lock()
	e.seq = maxJobSeq
	e.mu.Unlock()
	e.walMu.Lock()
	e.eventSeq = maxSeq
	e.walMu.Unlock()

	var recovered []RecoveredJob
	var interrupted []*job
	blobs := make(recoveredBlobs)
	for _, j := range jobs {
		if j.cancelRequested && !j.status.State.Terminal() {
			j.cancelReplayed()
		}
		if j.status.State.Terminal() {
			e.restoreTerminal(j, blobs)
			recovered = append(recovered, RecoveredJob{Status: j.snapshot()})
			continue
		}
		e.restoreInterrupted(j)
		interrupted = append(interrupted, j)
		recovered = append(recovered, RecoveredJob{Status: j.snapshot(), Resumed: true})
	}
	e.sortFinished()
	if err := e.CompactLog(); err != nil {
		return nil, err
	}
	for _, j := range interrupted {
		e.resubmit(j)
	}
	return recovered, nil
}

// replayedSubmission creates the job a WALJob record submitted, pending
// until later records fold into it. Until restoreTerminal decides whether
// the log carried a truncated event tail, droppedSeq holds the record's own
// seq: for a compacted truncated job that is the highest truncated seq
// (firstSeqLocked wrote it there).
func replayedSubmission(rec WALRecord) *job {
	// The default-tenant migration: job records written before
	// multi-tenancy carry no tenant and are adopted into DefaultTenant,
	// matching Store.Open's adoption of untagged table metadata.
	tenant := rec.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	j := &job{
		status:     Status{ID: rec.JobID, Tenant: tenant, Type: rec.Spec.Type, State: StatePending},
		seq:        rec.JobSeq,
		spec:       *rec.Spec,
		done:       make(chan struct{}),
		notify:     make(chan struct{}),
		droppedSeq: rec.Seq,
	}
	if rec.Created != nil {
		j.status.Created = *rec.Created
	}
	return j
}

// replay folds one level, status or cancel record into a replayed job, the
// way the live engine applied it.
func (j *job) replay(rec WALRecord) {
	switch rec.Kind {
	case WALLevel:
		if j.status.State.Terminal() {
			// recordLevel's rule: a cancel racing the last in-flight level
			// can append a checkpoint after the terminal record that no
			// subscriber ever saw.
			return
		}
		if rec.Level != nil {
			j.status.Levels = append(j.status.Levels, *rec.Level)
		}
		j.status.Progress = rec.Progress
		// The original sequence numbers keep reconnecting subscribers'
		// cursors valid across the restart.
		j.events = append(j.events, Event{
			Type: EventLevel, Seq: rec.Seq, Job: j.status.ID, Level: rec.Level,
			Calibration: rec.Calibration, Progress: rec.Progress, Source: rec.Source,
		})
	case WALStatus:
		if rec.Status == nil || !rec.Status.State.Terminal() {
			return
		}
		st := *rec.Status
		if st.Tenant == "" {
			// Terminal records written before multi-tenancy: the migrated
			// tenant from the job record carries over.
			st.Tenant = j.status.Tenant
		}
		j.status, rec.Status = st, &st
		j.term = &rec
	case WALCancel:
		j.cancelRequested, j.cancelSeq = true, rec.Seq
	}
}

// cancelReplayed finishes a job whose cancel was journaled but whose
// terminal record the crash beat: it takes the canceled terminal state the
// worker would have written, at the cancel record's seq, instead of
// re-running an explicitly cancelled job. Checkpoints from the cancel on
// are dropped, so the preserved level series is the same strict prefix a
// live cancel keeps.
func (j *job) cancelReplayed() {
	now := time.Now()
	j.status = Status{
		ID: j.status.ID, Tenant: j.status.Tenant, Type: j.status.Type, State: StateCanceled,
		Error: "canceled", Created: j.status.Created, Finished: &now,
	}
	kept := j.events[:0]
	for _, ev := range j.events {
		if ev.Seq < j.cancelSeq {
			kept = append(kept, ev)
			if ev.Level != nil {
				j.status.Levels = append(j.status.Levels, *ev.Level)
			}
		}
	}
	j.events = kept
	st := j.status
	j.term = &WALRecord{Seq: j.cancelSeq, Kind: WALStatus, JobID: st.ID, Status: &st}
}

// recoveredBlobs memoizes result-blob loads for one Recover call, keyed by
// content hash. Each distinct blob is read once — a missing or corrupt one
// included — and every recovered Result naming it shares the one immutable
// table, the same way cache hits share results.
type recoveredBlobs map[string]loadedBlob

type loadedBlob struct {
	table *dataset.Table
	err   error
}

func (b recoveredBlobs) load(store *Store, hash string) (*dataset.Table, error) {
	l, ok := b[hash]
	if !ok {
		l.table, l.err = store.Blob(hash)
		b[hash] = l
	}
	return l.table, l.err
}

// restoreTerminal finishes a replayed terminal job: its event feed's
// truncation offset, and — for done jobs — the Result, its table reloaded
// from the blob space through blobs; then it truncates the feed like a live
// finish and registers the job. A missing or unreadable blob degrades to a
// result-less job rather than failing recovery, and is recorded in
// EngineStats.RecoveryErrors.
func (e *Engine) restoreTerminal(j *job, blobs recoveredBlobs) {
	j.claimed = true
	close(j.done)
	if n := len(j.status.Levels) - len(j.events); n > 0 && len(j.events) > 0 {
		// The log carried only a truncated tail of the level series (it was
		// compacted after event truncation), and droppedSeq still holds the
		// job record's seq, the highest truncated one: resuming subscribers
		// keep getting the same synthesized result replay they would have
		// gotten before the restart.
		j.eventsBase = n
	} else {
		j.droppedSeq = 0
	}
	if rr := j.term.Result; j.status.State == StateDone && rr != nil {
		res := rr.result()
		if h := rr.TableHash; h != "" {
			t, err := blobs.load(e.store, h)
			if err != nil {
				e.noteRecoveryError(j.status.ID, fmt.Errorf("result blob %s: %w", h, err))
			} else {
				res.Table = t
			}
		}
		j.result = res
		e.reseedCache(j, res)
	}
	// Recovered terminal jobs obey the same replay-buffer bound as live ones.
	j.mu.Lock()
	j.truncateEventsLocked(e.opts.MaxJobEvents)
	j.mu.Unlock()
	e.mu.Lock()
	e.jobs[j.status.ID] = j
	e.finished = append(e.finished, j)
	e.mu.Unlock()
}

// reseedCache re-registers a recovered done job's result under its cache
// key, so identical post-restart submissions hit the cache exactly as they
// would have before the crash. Jobs whose input tables are gone (deleted,
// or TTL-evicted) are skipped — their key can no longer be formed.
func (e *Engine) reseedCache(j *job, res *Result) {
	if res.Table == nil && j.status.Type != JobAssess {
		return // incomplete rebuild (missing blob): don't serve it from cache
	}
	_, _, key, _, err := e.resolveInputs(j.status.Tenant, j.spec)
	if err != nil {
		return
	}
	e.cache.Put(j.status.Tenant, key, res, e.opts.Quotas.For(j.status.Tenant).CacheShare)
}

// restoreInterrupted readies a replayed interrupted job for re-submission
// as pending. Its checkpointed levels stay in Status.Levels and the event
// feed, and seed a fred-sweep's resume: checkpoints may arrive in any order
// (an adaptive search evaluates out of k order) and with gaps (recordLevel
// tolerates a dropped WAL append), and the planner adopts whatever set they
// cover and computes the rest.
func (e *Engine) restoreInterrupted(j *job) {
	j.ctx, j.cancel = context.WithCancel(e.baseCtx)
	j.status.Resumed = true
	j.droppedSeq = 0
	j.resume = j.status.Levels
	e.mu.Lock()
	e.jobs[j.status.ID] = j
	e.mu.Unlock()
}

// resubmit resolves a rebuilt interrupted job's tables and enqueues it. A
// job whose inputs cannot be resolved (table deleted before the crash, or
// queue overflow) terminates as failed instead of blocking recovery, and the
// failure is recorded for healthz (readiness alone would hide it: the pool
// comes up fine, the job just failed instantly).
func (e *Engine) resubmit(j *job) {
	p, aux, key, levelKey, err := e.resolveInputs(j.status.Tenant, j.spec)
	if err != nil {
		e.noteRecoveryError(j.status.ID, err)
		e.terminate(j, nil, fmt.Errorf("resume: %w", err))
		return
	}
	j.p, j.aux, j.key, j.levelKey = p, aux, key, levelKey
	e.mu.Lock()
	select {
	case e.queue <- j:
		e.enqueuedLocked(j.status.Tenant)
		e.mu.Unlock()
	default:
		e.mu.Unlock()
		e.noteRecoveryError(j.status.ID, ErrQueueFull)
		e.terminate(j, nil, fmt.Errorf("resume: %w", ErrQueueFull))
	}
}

// noteRecoveryError records a job recovery could not fully restore — a
// re-submission that failed, or a result blob that would not load — for
// EngineStats.RecoveryErrors / healthz.
func (e *Engine) noteRecoveryError(id string, err error) {
	e.mu.Lock()
	e.recoveryErrs = append(e.recoveryErrs, fmt.Sprintf("%s: %v", id, err))
	e.mu.Unlock()
}

// sortFinished restores the finished log's finish order after recovery, so
// retention keeps evicting oldest-finished first.
func (e *Engine) sortFinished() {
	e.mu.Lock()
	defer e.mu.Unlock()
	sort.SliceStable(e.finished, func(i, k int) bool {
		fi, fk := e.finished[i].status.Finished, e.finished[k].status.Finished
		switch {
		case fi == nil:
			return fk != nil
		case fk == nil:
			return false
		default:
			return fi.Before(*fk)
		}
	})
}

// EvictTables removes tables older than ttl that no pending or running job
// references from the store and its backend, returning the evicted
// metadata. It is the TTL garbage collection behind `served -table-ttl`.
// Tables referenced by in-flight jobs are exempt; jobs already holding
// table pointers are unaffected either way (tables are immutable — eviction
// only frees the handle and the backing files).
func (e *Engine) EvictTables(ttl time.Duration) []TableInfo {
	// Table handles are only unique per tenant, so the in-use set is keyed
	// by (tenant, id) — tenant A's live job must not shield tenant B's
	// same-numbered table from eviction.
	inUse := make(map[[2]string]bool)
	e.mu.RLock()
	for _, j := range e.jobs {
		if st := j.snapshot(); !st.State.Terminal() {
			inUse[[2]string{st.Tenant, j.spec.Table}] = true
			if j.spec.Aux != "" {
				inUse[[2]string{st.Tenant, j.spec.Aux}] = true
			}
		}
	}
	e.mu.RUnlock()
	return e.store.Evict(time.Now().Add(-ttl), func(info TableInfo) bool {
		return inUse[[2]string{info.Tenant, info.ID}]
	})
}
