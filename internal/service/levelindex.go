package service

import (
	"container/list"
	"sync"

	"repro/internal/core"
)

// levelIndex is the cross-job warm-start cache: a mutex-guarded LRU over
// per-table level series, keyed by tenant|Spec.levelKey. Where resultCache
// memoizes whole finished jobs (exact spec match), the level index memoizes
// the individual levels inside them, so a new sweep overlapping ANY cached
// sweep of the same (table, adversary, scheme, sensitive range) seeds the
// overlap and computes only the gap — including partial overlaps, disjoint
// threshold choices and budget-truncated prior runs the result cache can
// never hit on.
//
// Entries hold only the per-level numbers (the tables are stripped): a warm
// level's release is recomputed on demand if the argmax lands on it, exactly
// like a crash-recovery seed. Tenants never share entries — the tenant
// prefixes the key — for the same reason the result cache partitions by
// tenant: a cross-tenant warm hit would leak that another tenant swept the
// same table.
type levelIndex struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[string]*list.Element
}

type levelEntry struct {
	key    string
	levels map[int]core.LevelResult
}

// newLevelIndex returns an index tracking up to cap tables; cap ≤ 0 disables
// warm-starting entirely.
func newLevelIndex(cap int) *levelIndex {
	return &levelIndex{
		cap:   cap,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Put merges a sweep's levels into the table's entry, stripping the table
// payloads. Later puts win on duplicate k — the numbers are deterministic
// per levelKey, so the overwrite is a no-op in value.
func (x *levelIndex) Put(key string, levels []core.LevelResult) {
	if x == nil || x.cap <= 0 || len(levels) == 0 {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	el, ok := x.items[key]
	if !ok {
		el = x.ll.PushFront(&levelEntry{key: key, levels: make(map[int]core.LevelResult, len(levels))})
		x.items[key] = el
		for x.ll.Len() > x.cap {
			old := x.ll.Back()
			delete(x.items, old.Value.(*levelEntry).key)
			x.ll.Remove(old)
		}
	} else {
		x.ll.MoveToFront(el)
	}
	ent := el.Value.(*levelEntry)
	for _, lr := range levels {
		lr.Release, lr.Phat = nil, nil
		// Warm replays cost the borrowing job nothing — drop the timings so
		// they are not misattributed to it.
		lr.Elapsed = 0
		lr.AnonymizeTime, lr.FuseTime, lr.MetricsTime = 0, 0, 0
		ent.levels[lr.K] = lr
	}
}

// Get returns the cached levels among ks, refreshing the entry's recency.
// The returned map is a fresh copy, never nil: the caller owns it and may
// add to it, and never observes later merges.
func (x *levelIndex) Get(key string, ks []int) map[int]core.LevelResult {
	out := make(map[int]core.LevelResult)
	if x == nil || x.cap <= 0 {
		return out
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	el, ok := x.items[key]
	if !ok {
		return out
	}
	x.ll.MoveToFront(el)
	ent := el.Value.(*levelEntry)
	for _, k := range ks {
		if lr, ok := ent.levels[k]; ok {
			out[k] = lr
		}
	}
	return out
}

// Tables reports the number of tables tracked.
func (x *levelIndex) Tables() int {
	if x == nil {
		return 0
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.ll.Len()
}
