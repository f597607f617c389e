package engine

import "sync"

// MemoShard is one lock-striped slice of a Memo: a map guarded by a
// read-write lock. Its one user is the engine's cost-model Cache; the
// solver's evaluator keys its terms by small dense integers and keeps
// them in flat lock-free tables instead.
type MemoShard[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]V
}

// Get returns the memoized value for k, computing it at most once per
// distinct key observed at insert time; fresh reports whether this
// call stored a new entry. Concurrent misses on the same key may both
// compute, but only the first store wins and only it reports fresh —
// so counting fresh results yields the distinct-key count, identical
// at any worker count for a deterministic compute.
func (s *MemoShard[K, V]) Get(k K, compute func() V) (v V, fresh bool) {
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		return v, false
	}
	v = compute()
	s.mu.Lock()
	if old, ok := s.m[k]; ok {
		s.mu.Unlock()
		return old, false
	}
	if s.m == nil {
		s.m = make(map[K]V)
	}
	s.m[k] = v
	s.mu.Unlock()
	return v, true
}

// Peek returns the memoized value for k without computing anything on
// a miss — the probe batched sweeps use to split already-priced jobs
// from genuinely new work.
func (s *MemoShard[K, V]) Peek(k K) (V, bool) {
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	return v, ok
}

// each calls f for every entry of the shard under its read lock.
func (s *MemoShard[K, V]) each(f func(K, V)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, v := range s.m {
		f(k, v)
	}
}

// len returns the shard's entry count.
func (s *MemoShard[K, V]) len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Memo is a goroutine-safe sharded memoization map: the caller's hash
// function spreads keys over power-of-two lock stripes so parallel
// workers do not serialize on one lock.
type Memo[K comparable, V any] struct {
	hash   func(K) uint64
	shards []MemoShard[K, V]
	mask   uint64
}

// NewMemo returns a memo with at least the requested shard count
// (rounded up to a power of two) using hash for shard selection. The
// hash only picks the stripe, so it may mix any representative subset
// of the key.
func NewMemo[K comparable, V any](shards int, hash func(K) uint64) *Memo[K, V] {
	n := 1
	for n < shards {
		n <<= 1
	}
	m := &Memo[K, V]{hash: hash, shards: make([]MemoShard[K, V], n), mask: uint64(n - 1)}
	for i := range m.shards {
		m.shards[i].m = make(map[K]V)
	}
	return m
}

// Get returns the memoized value for k, computing and storing it on
// first use; fresh reports whether this call stored the entry (see
// MemoShard.Get).
func (m *Memo[K, V]) Get(k K, compute func() V) (V, bool) {
	return m.shards[m.hash(k)&m.mask].Get(k, compute)
}

// Peek returns the memoized value for k, or the zero value and false,
// without computing anything.
func (m *Memo[K, V]) Peek(k K) (V, bool) {
	return m.shards[m.hash(k)&m.mask].Peek(k)
}

// Range calls f for every memoized entry, one shard at a time under
// that shard's read lock. Iteration order is unspecified; f must not
// call back into the memo (it would self-deadlock on the shard lock).
func (m *Memo[K, V]) Range(f func(K, V)) {
	for i := range m.shards {
		m.shards[i].each(f)
	}
}

// Shards returns the shard count (always a power of two).
func (m *Memo[K, V]) Shards() int { return len(m.shards) }

// Len returns the total entry count across shards.
func (m *Memo[K, V]) Len() int {
	n := 0
	for i := range m.shards {
		n += m.shards[i].len()
	}
	return n
}
