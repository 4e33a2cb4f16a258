package service

import (
	"fmt"
	"sort"
)

// This file implements WAL compaction: CompactLog rewrites the durable job
// log down to its live image. It is the only writer of that image — the
// served -wal-compact ticker calls it while the engine is serving, so a
// long-lived process does not depend on restarts to shrink its log, and
// Engine.Recover calls it once the replayed log is folded into jobs — so
// boot-time and online compaction cannot diverge. The write path serializes
// every append through walMu; CompactLog holds the same mutex for the whole
// rewrite, so the compacted image plus subsequent appends is exactly the
// record sequence a restart would have produced.

// CompactLog rewrites the job log to the live image of the engine's current
// state: a high-water marker (omitted while both counters are zero, so a
// first boot's log stays empty), then for every job still in the log its
// submission record, retained level checkpoints (with their original
// sequence numbers, so resume cursors survive), a journaled-but-unfinished
// cancellation if any, and the terminal status + result projection. Jobs
// deleted or evicted from the log simply do not appear. Appends are blocked
// for the duration; level checkpoints (the only high-frequency appends)
// block on walMu anyway, so this adds latency, not a new failure mode.
func (e *Engine) CompactLog() error {
	e.walMu.Lock()
	defer e.walMu.Unlock()

	e.mu.RLock()
	jobs := make([]*job, 0, len(e.jobs))
	for _, j := range e.jobs {
		jobs = append(jobs, j)
	}
	maxJobSeq := e.seq
	e.mu.RUnlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })

	var live []*WALRecord
	if e.eventSeq > 0 || maxJobSeq > 0 {
		// The marker keeps the counters from regressing even when every job
		// below was deleted or compacted away.
		live = append(live, &WALRecord{Seq: e.eventSeq, Kind: WALMark, JobSeq: maxJobSeq})
	}
	for _, j := range jobs {
		live = append(live, j.walImage()...)
	}
	if err := e.opts.JobLog.CompactWAL(live); err != nil {
		return fmt.Errorf("service: compact job log: %w", err)
	}
	return nil
}

// walImage renders one job's live WAL records, in the same kind order the
// original appends used (job, levels, cancel, status). Sequence numbers of
// level and status records are the original durable ones — they are the
// resume cursors subscribers hold. Only the retained event tail of a
// truncated job is written; events without a durable seq (failed appends,
// skips) are not re-journaled.
func (j *job) walImage() []*WALRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.status
	created := st.Created
	out := []*WALRecord{{
		Seq: j.firstSeqLocked(), Kind: WALJob, Ver: walSpecVersion,
		JobID: st.ID, JobSeq: j.seq, Tenant: st.Tenant, Spec: &j.spec, Created: &created,
	}}
	for i := range j.events {
		ev := &j.events[i]
		if ev.Type != EventLevel || ev.Seq == 0 {
			continue
		}
		out = append(out, &WALRecord{
			Seq: ev.Seq, Kind: WALLevel, JobID: st.ID,
			Level: ev.Level, Calibration: ev.Calibration,
			Progress: ev.Progress, Source: ev.Source,
		})
	}
	if j.term != nil {
		// Committed, perhaps not yet published: a restart must recover it.
		out = append(out, j.term)
	} else if j.cancelRequested {
		// Cancel journaled, worker still unwinding: preserve the record, or
		// a crash before the terminal append would re-run a canceled job.
		out = append(out, &WALRecord{Seq: j.cancelSeq, Kind: WALCancel, JobID: st.ID})
	}
	return out
}

// firstSeqLocked reconstructs a sequence number for the job's submission
// record, strictly below its first retained checkpoint and terminal record.
// For a truncated job it is droppedSeq, the highest truncated seq, which
// recovery reads back from the job record so cursors behind the tail behave
// as they did live. Otherwise the exact value is insignificant: cursors only
// ever name level and status records. Callers hold j.mu.
func (j *job) firstSeqLocked() uint64 {
	if j.droppedSeq > 0 {
		return j.droppedSeq
	}
	for i := range j.events {
		if j.events[i].Seq > 0 {
			return j.events[i].Seq - 1
		}
	}
	if j.term != nil && j.term.Seq > 0 {
		return j.term.Seq - 1
	}
	return 0
}
