package service

import (
	"time"

	"repro/internal/dataset"
	"repro/internal/risk"
)

// This file defines the storage plane behind the service: the backend
// interfaces Store and Engine persist through, the write-ahead-log record
// vocabulary, and the ephemeral in-memory implementations that preserve the
// pre-durability behavior. internal/service/diskstore provides the
// disk-backed implementations; DESIGN.md in this package documents the file
// layout, the WAL format and the recovery protocol.

// TableRecord pairs a stored table with its metadata — the unit a
// TableBackend persists and reloads.
type TableRecord struct {
	Info  TableInfo
	Table *dataset.Table
}

// TableBackend is the durability plane behind Store. Store remains the
// concurrency and ID-assignment layer and keeps every table resident in
// memory (jobs need live *dataset.Table pointers); the backend only decides
// whether tables additionally survive restarts. Implementations must be safe
// for concurrent use.
type TableBackend interface {
	// PutTable persists one table record in its tenant's namespace
	// (rec.Info.Tenant). Identical tables (same content hash) within one
	// tenant may share storage.
	PutTable(rec TableRecord) error
	// DeleteTable removes the record for (tenant, id) — table handles are
	// only unique per tenant. Unknown ids are a no-op.
	DeleteTable(tenant, id string) error
	// LoadTables returns every persisted record, for Store.Open.
	LoadTables() ([]TableRecord, error)
	// PutBlob persists an auxiliary table keyed by its content hash — job
	// result tables, which recovery reloads with GetBlob. Re-putting an
	// existing hash is a no-op.
	PutBlob(hash string, t *dataset.Table) error
	// GetBlob loads an auxiliary table by content hash.
	GetBlob(hash string) (*dataset.Table, error)
	// Durable reports whether the backend outlives the process. The engine
	// skips result-blob work on ephemeral backends.
	Durable() bool
}

// WALKind discriminates job write-ahead-log records.
type WALKind string

// The WAL record kinds. A job's durable history is one "job" record,
// zero or more "level" checkpoints, and at most one terminal "status"
// record; a "delete" record retracts the job (explicit DELETE or retention
// eviction). A job record without a terminal status is an interrupted job,
// which recovery re-submits.
// walSpecVersion is the current WAL spec vocabulary version, stamped on
// every submission record. Version history:
//
//	0/1 — the pre-planner vocabulary (range sweeps, thresholds).
//	2   — adds the adaptive planner spec fields (k_set, stride, budget_ms,
//	      adaptive) and the level checkpoint source tag.
const walSpecVersion = 2

const (
	WALJob    WALKind = "job"
	WALLevel  WALKind = "level"
	WALStatus WALKind = "status"
	WALDelete WALKind = "delete"
	// WALCancel durably records a cancellation the moment Cancel accepts
	// it, before the worker has unwound and written the terminal status: a
	// crash in that window must not resurrect the cancelled job as an
	// interrupted one — recovery synthesizes the canceled terminal state
	// instead of re-running it.
	WALCancel WALKind = "cancel"
	// WALMark is the compaction high-water marker: it carries the event-seq
	// (Seq) and job-ID (JobSeq) counters at compaction time, so they never
	// regress even when every record that produced them was dropped — a
	// deleted job's ID is never reissued and old stream cursors stay
	// meaningful.
	WALMark WALKind = "mark"
)

// WALRecord is one job write-ahead-log entry. Seq is the engine-assigned
// monotonic event sequence number shared with streamed Events, so a WAL is
// also the durable form of the event feed.
type WALRecord struct {
	Seq   uint64  `json:"seq"`
	Kind  WALKind `json:"kind"`
	JobID string  `json:"job_id"`
	// Ver is the spec vocabulary version the record was written under (see
	// walSpecVersion). Zero on records from builds predating versioning —
	// replayed fine, their vocabulary is a strict subset. Recovery refuses
	// records from a NEWER vocabulary loudly instead of silently dropping
	// fields a downgrade cannot honor.
	Ver int `json:"ver,omitempty"`

	// Submission fields (kind "job"). Tenant is the namespace the job runs
	// in; an empty tenant on replay — a record written before multi-tenancy
	// — is adopted into DefaultTenant by Recover.
	JobSeq  int        `json:"job_seq,omitempty"`
	Tenant  string     `json:"tenant,omitempty"`
	Spec    *Spec      `json:"spec,omitempty"`
	Created *time.Time `json:"created,omitempty"`

	// Checkpoint fields (kind "level"). Source tags warm-started levels, as
	// on the streamed event.
	Level       *LevelSummary `json:"level,omitempty"`
	Calibration *Calibration  `json:"calibration,omitempty"`
	Progress    float64       `json:"progress,omitempty"`
	Source      string        `json:"source,omitempty"`

	// Terminal fields (kind "status").
	Status *Status       `json:"status,omitempty"`
	Result *ResultRecord `json:"result,omitempty"`
}

// ResultRecord is the durable projection of a done job's Result: every
// scalar field verbatim (encoding/json round-trips float64 exactly), plus
// the content hash of the result table, whose snapshot lives in the table
// backend's blob space.
type ResultRecord struct {
	TableHash  string           `json:"table_hash,omitempty"`
	Levels     []LevelSummary   `json:"levels,omitempty"`
	OptimalK   int              `json:"optimal_k,omitempty"`
	Hmax       float64          `json:"hmax,omitempty"`
	Tp         float64          `json:"tp,omitempty"`
	Tu         float64          `json:"tu,omitempty"`
	Evaluated  int              `json:"evaluated,omitempty"`
	Partial    bool             `json:"partial,omitempty"`
	Before     float64          `json:"before,omitempty"`
	After      float64          `json:"after,omitempty"`
	Assessment *risk.Assessment `json:"assessment,omitempty"`
}

// record and result convert between a Result and its durable projection;
// the table travels separately, as the blob TableHash names.
func (r *Result) record() *ResultRecord {
	return &ResultRecord{Levels: r.Levels, OptimalK: r.OptimalK, Hmax: r.Hmax, Tp: r.Tp, Tu: r.Tu,
		Evaluated: r.Evaluated, Partial: r.Partial, Before: r.Before, After: r.After, Assessment: r.Assessment}
}

func (rr *ResultRecord) result() *Result {
	return &Result{Levels: rr.Levels, OptimalK: rr.OptimalK, Hmax: rr.Hmax, Tp: rr.Tp, Tu: rr.Tu,
		Evaluated: rr.Evaluated, Partial: rr.Partial, Before: rr.Before, After: rr.After, Assessment: rr.Assessment}
}

// JobBackend is the durability plane behind the engine's job log.
// Implementations must be safe for concurrent appends; the engine
// additionally serializes appends so file order matches sequence order.
type JobBackend interface {
	// AppendWAL durably appends one record.
	AppendWAL(rec *WALRecord) error
	// ReplayWAL calls fn for every persisted record in append order. A
	// torn final record (crash mid-append) ends the replay cleanly.
	ReplayWAL(fn func(WALRecord) error) error
	// CompactWAL atomically replaces the log with recs — Engine.CompactLog
	// rewrites the live image, at boot and online, so the log does not grow
	// without bound.
	CompactWAL(recs []*WALRecord) error
	// SyncWAL flushes appended records to stable storage.
	SyncWAL() error
}

// memTableBackend is the ephemeral backend: tables live only in the Store's
// resident map, blobs are never persisted. It preserves the pre-durability
// in-memory service exactly.
type memTableBackend struct{}

// NewMemTableBackend returns the ephemeral table backend used by NewStore.
func NewMemTableBackend() TableBackend { return memTableBackend{} }

func (memTableBackend) PutTable(TableRecord) error           { return nil }
func (memTableBackend) DeleteTable(string, string) error     { return nil }
func (memTableBackend) LoadTables() ([]TableRecord, error)   { return nil, nil }
func (memTableBackend) PutBlob(string, *dataset.Table) error { return nil }
func (memTableBackend) GetBlob(hash string) (*dataset.Table, error) {
	return nil, &ErrNotFound{Kind: "blob", ID: hash}
}
func (memTableBackend) Durable() bool { return false }

// memJobBackend is the ephemeral job log: appends vanish, replay is empty.
type memJobBackend struct{}

// NewMemJobBackend returns the ephemeral job log used when Options.JobLog
// is nil.
func NewMemJobBackend() JobBackend { return memJobBackend{} }

func (memJobBackend) AppendWAL(*WALRecord) error            { return nil }
func (memJobBackend) ReplayWAL(func(WALRecord) error) error { return nil }
func (memJobBackend) CompactWAL([]*WALRecord) error         { return nil }
func (memJobBackend) SyncWAL() error                        { return nil }
