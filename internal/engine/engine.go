// Package engine is the concurrent evaluation engine behind every
// design-space sweep in the repository. The cost model is a pure
// function of (model, wafer, config, options), so the engine memoizes
// its results in a goroutine-safe sharded cache and fans batches of
// configurations out across a bounded worker pool. The solver's
// genetic stage, the experiment runners and all three CLIs route
// their sweeps through it: figures that revisit the same
// configuration space (Fig. 13 and Fig. 14 sweep identical systems)
// pay for each evaluation once, and multi-core runners evaluate the
// rest in parallel.
//
// The memo is keyed by each job's canonical binary encoding, the key
// the persistent memo (DiskMemo) writes to disk. A DiskMemo is the
// memo's append log: attaching one parses its file into the memo once,
// and every freshly priced result is appended to it. So each result
// lives in memory once, whether it was priced here, loaded from disk
// or imported from a fabric coordinator's segment.
//
// Below the memo layer, every worker also shares the pricing hot
// path's structural caches — interned topologies and the per-topology
// evaluation states with their merged lowering templates and TCME
// route plans (see DESIGN.md "Hot-path architecture") — because those
// key off process-global frozen topologies. A Sweep or GA population
// therefore lowers each distinct group structure once no matter how
// many candidates or workers touch it; TestSweepSharesHotPathCaches
// pins both the -race safety and the parallel/serial determinism of
// that sharing.
package engine

import (
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"

	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
)

// Job identifies one cost-model evaluation. Its canonical binary
// encoding (appendJobKey) is the memo key, in memory and on disk.
type Job struct {
	Model  model.Config
	Wafer  hw.Wafer
	Config parallel.Config
	Opts   cost.Options
	// Backend is the canonical cost-backend key pricing the job
	// ("replay", "surrogate@seed=7"; see cost.BackendKey). Empty
	// means the pool's default backend — the analytic tier unless
	// SetDefaultBackend retargeted it. The resolved key is part of
	// the memo key, so tiers never share cache entries.
	Backend string
}

// Result is the outcome of one Job.
type Result struct {
	Breakdown cost.Breakdown
	Err       error
}

// Cache is the engine's goroutine-safe memo of priced jobs, keyed by
// the job's canonical binary encoding (appendJobKey, the key the
// persistent memo stores) and striped over read-write-locked maps so
// parallel workers do not serialize on one lock. Pool.Sweep is its one
// lookup-and-price path: it looks each normalized job up, prices the
// misses and publishes the results. Attaching a DiskMemo publishes the
// file's records here too, so every result lives in memory once. The
// cost model is deterministic, so concurrent misses on the same key
// may price twice but always store the same value.
type Cache struct {
	shards      []cacheShard
	mask        uint64
	seed        maphash.Seed
	disk        atomic.Pointer[DiskMemo]
	hits        atomic.Int64
	misses      atomic.Int64
	diskHits    atomic.Int64
	batchCalls  atomic.Int64
	batchedJobs atomic.Int64
	// Coalescer telemetry: flushes, the jobs they priced, and the
	// subset of those jobs that shared a flush with at least one
	// other submitter (the cross-request batching win).
	coalFlushes atomic.Int64
	coalJobs    atomic.Int64
	coalShared  atomic.Int64
}

// cacheShard is one lock stripe of a Cache.
type cacheShard struct {
	mu sync.RWMutex
	m  map[string]*memoEntry
}

// memoEntry is one memoized result. fromDisk marks an entry the
// persistent memo loaded that no lookup has served yet: its first
// lookup counts a disk hit and clears the mark.
type memoEntry struct {
	r        Result
	fromDisk bool
}

// NewCache returns an empty cache. Its stripe count is fixed here: at
// least 64 and four per GOMAXPROCS thread (a power of two), since no
// more goroutines than those threads run at once.
func NewCache() *Cache {
	n := 64
	for n < 4*runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	c := &Cache{shards: make([]cacheShard, n), mask: uint64(n - 1), seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*memoEntry)
	}
	return c
}

// lookup returns the result memoized under key and counts the lookup:
// the first lookup of an entry loaded from the persistent memo counts
// a disk hit, every other a hit. It does not allocate.
func (c *Cache) lookup(key []byte) (Result, bool) {
	s := &c.shards[maphash.Bytes(c.seed, key)&c.mask]
	s.mu.RLock()
	e, ok := s.m[string(key)]
	fromDisk := ok && e.fromDisk
	s.mu.RUnlock()
	if !ok {
		return Result{}, false
	}
	if fromDisk {
		// Of racing first lookups, only the one that clears the mark
		// counts the disk hit.
		s.mu.Lock()
		fromDisk = e.fromDisk
		e.fromDisk = false
		s.mu.Unlock()
	}
	if fromDisk {
		c.diskHits.Add(1)
	} else {
		c.hits.Add(1)
	}
	return e.r, true
}

// publish stores r under key unless key already has an entry, and
// returns the stored entry's result. fresh reports whether this call
// stored it: of concurrent publishers of one key only the first store
// is fresh, so counting fresh stores as misses yields the distinct-key
// count at any worker count. fromDisk marks a record the persistent
// memo loaded.
func (c *Cache) publish(key string, r Result, fromDisk bool) (stored Result, fresh bool) {
	s := &c.shards[maphash.String(c.seed, key)&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[key]; ok {
		return e.r, false
	}
	s.m[key] = &memoEntry{r: r, fromDisk: fromDisk}
	return r, true
}

// len returns the entry count across stripes.
func (c *Cache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Stats reports cache effectiveness counters. The JSON tags make a
// snapshot directly embeddable in machine-readable outputs (tempbench
// -json, the tempserve /metrics endpoint).
type Stats struct {
	// Hits and Misses count memo hits and exact (priced) evaluations;
	// DiskHits counts the first lookup of each result the persistent
	// memo loaded, served without pricing.
	Hits     int64 `json:"cache_hits"`
	Misses   int64 `json:"cache_misses"`
	DiskHits int64 `json:"cache_disk_hits"`
	// BatchCalls and BatchedJobs count batched-kernel invocations and
	// the candidates they covered (Sweep's miss path).
	BatchCalls  int64 `json:"batch_calls"`
	BatchedJobs int64 `json:"batched_jobs"`
	// Entries counts memoized results, the records loaded from a
	// persistent memo or an imported segment included.
	Entries int `json:"entries"`
	// DiskEntries counts the attached persistent memo's live records
	// at attach plus those appended since (0 when none is attached).
	DiskEntries int `json:"disk_entries"`
	// DiskCompacted and DiskDropped report what the persistent memo's
	// open-time recovery discarded: duplicate records rewritten away
	// by auto-compaction, and corrupt tail bytes dropped. Both are 0
	// when no memo is attached or the file was clean.
	DiskCompacted int `json:"disk_compacted_records"`
	DiskDropped   int `json:"disk_dropped_bytes"`
	// CoalesceFlushes/CoalescedJobs/CoalesceShared report the
	// cross-request miss coalescer: batched flushes, the distinct jobs
	// they priced, and the jobs that flushed together with another
	// submitter's (0 unless a Coalescer is attached).
	CoalesceFlushes int64 `json:"coalesce_flushes"`
	CoalescedJobs   int64 `json:"coalesced_jobs"`
	CoalesceShared  int64 `json:"coalesce_shared_jobs"`
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits: c.hits.Load(), Misses: c.misses.Load(), DiskHits: c.diskHits.Load(),
		BatchCalls: c.batchCalls.Load(), BatchedJobs: c.batchedJobs.Load(),
		CoalesceFlushes: c.coalFlushes.Load(), CoalescedJobs: c.coalJobs.Load(),
		CoalesceShared: c.coalShared.Load(),
		Entries:        c.len(),
	}
	if d := c.disk.Load(); d != nil {
		d.mu.Lock()
		s.DiskEntries, s.DiskCompacted, s.DiskDropped = d.records, d.compacted, d.dropped
		d.mu.Unlock()
	}
	return s
}

// Pool couples a worker count with a cache. The zero worker count
// means runtime.GOMAXPROCS(0). The bound is global across nested
// fan-outs: Map calls may nest freely (experiments → systems →
// config sweeps), but every cost-model evaluation routed through the
// pool acquires one of its workers tokens, so at most workers
// evaluations compute concurrently no matter how deep the
// orchestration stacks.
type Pool struct {
	workers int
	cache   *Cache
	// backend is the default cost-backend key injected into jobs that
	// leave Job.Backend empty ("" = analytic). It retargets every
	// sweep routed through the pool — the CLI -backend axis.
	backend string
	// sem bounds concurrent leaf evaluations. Only leaves (the
	// actual cost-model computation, which never re-enters the
	// engine) hold a token, so nested Map orchestration cannot
	// deadlock against it.
	sem chan struct{}
	// coal, when non-nil, merges concurrent Sweeps' cache misses
	// across callers before batched pricing (the serving daemon's
	// cross-request batching hook; see Coalescer).
	coal *Coalescer
}

// New returns a pool with its own cache. workers <= 0 selects
// runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, cache: NewCache(), sem: make(chan struct{}, workers)}
}

// Do runs one leaf computation under the pool's global evaluation
// bound. f must not call back into the pool (it would deadlock the
// token it holds); the engine's own evaluation paths already route
// through Do, so callers only need it for work that bypasses the
// cache (e.g. cluster evaluations).
func (p *Pool) Do(f func()) {
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	f()
}

// Workers returns the pool's worker bound.
func (p *Pool) Workers() int { return p.workers }

// Cache returns the pool's cache.
func (p *Pool) Cache() *Cache { return p.cache }

// EvaluateJob runs one memoized evaluation of an explicit job
// (including its backend key): a Sweep of one.
func (p *Pool) EvaluateJob(j Job) (cost.Breakdown, error) {
	r := p.Sweep([]Job{j})[0]
	return r.Breakdown, r.Err
}

// normalize canonicalizes a job for cache keying: equivalent
// configurations and backend spellings share one entry, and the
// pool's default backend is resolved in.
func (p *Pool) normalize(j Job) Job {
	j.Config = j.Config.Normalize()
	if j.Backend == "" {
		j.Backend = p.backend
	}
	j.Backend = cost.CanonicalBackendKey(j.Backend)
	return j
}

// jobFamily is what a batch of candidates shares: everything in a Job
// except the parallel configuration. Sweep groups cache misses by
// family so each group prices through one batched kernel invocation,
// amortizing topology, block-graph and lowering-state lookups across
// the whole group.
type jobFamily struct {
	Model   model.Config
	Wafer   hw.Wafer
	Opts    cost.Options
	Backend string
}

// sweepChunkCap bounds one batched pricing call so a large miss set
// still spreads across the worker pool.
const sweepChunkCap = 64

// jobKeyCap sizes Sweep's stack buffer for job keys: a job's key is
// 358 bytes plus its model, wafer and backend names.
const jobKeyCap = 512

// Sweep fans the jobs out across the pool's workers and returns
// their results in input order, regardless of completion order. It is
// the engine's one lookup-and-price path: it alone looks jobs up in
// the memo, prices misses and counts hits, misses and disk hits.
//
// Misses are priced in batches: the distinct unpriced jobs are grouped
// by family and chunked through cost.PriceBatch, so a population-sized
// sweep pays the per-family setup once per chunk instead of once per
// candidate. A batch prices each candidate bit-exactly as a batch of
// one does, so results do not depend on how jobs are grouped into
// sweeps.
func (p *Pool) Sweep(jobs []Job) []Result {
	out := make([]Result, len(jobs))
	norm := make([]Job, len(jobs))
	var kb [jobKeyCap]byte
	var missIdx []int
	for i := range jobs {
		j := p.normalize(jobs[i])
		norm[i] = j
		if r, ok := p.cache.lookup(appendJobKey(kb[:0], j)); ok {
			out[i] = r
			continue
		}
		missIdx = append(missIdx, i)
	}
	if len(missIdx) == 0 {
		return out
	}

	// Group the distinct missing jobs by family, in first-seen order.
	// priced holds each distinct miss from here on, so a repeat later in
	// the sweep is priced once and the chunk accounting stays exact.
	priced := make(map[Job]Result, len(missIdx))
	families := make(map[jobFamily][]parallel.Config)
	var order []jobFamily
	for _, i := range missIdx {
		j := norm[i]
		if _, ok := priced[j]; ok {
			continue
		}
		priced[j] = Result{}
		f := jobFamily{Model: j.Model, Wafer: j.Wafer, Opts: j.Opts, Backend: j.Backend}
		if _, ok := families[f]; !ok {
			order = append(order, f)
		}
		families[f] = append(families[f], j.Config)
	}
	if co := p.coal; co != nil {
		// Cross-request miss coalescing: hand the family groups to the
		// coalescer, which merges them with other in-flight sweeps'
		// misses before pricing (results are bit-identical — batched
		// kernels are grouping-invariant).
		co.price(order, families, priced)
	} else {
		p.priceFamilies(order, families, len(priced), priced)
	}

	// Publish into the memo: a job another sweep (or an earlier
	// duplicate in this one) stored first counts as a hit and serves
	// that entry, and fresh results are appended to the disk memo.
	disk := p.cache.disk.Load()
	for _, i := range missIdx {
		j := norm[i]
		key := string(appendJobKey(kb[:0], j))
		r, fresh := p.cache.publish(key, priced[j], false)
		out[i] = r
		if !fresh {
			p.cache.hits.Add(1)
			continue
		}
		p.cache.misses.Add(1)
		if disk != nil {
			// A failed append loses only the record; the memo holds it.
			_ = disk.append(key, r)
		}
	}
	return out
}

// priceFamilies prices family-grouped configuration lists through
// chunked cost.PriceBatch calls spread across the pool, writing each
// job's result into priced. distinct is the total config count across
// families (for chunk sizing and the batched-jobs counter).
func (p *Pool) priceFamilies(order []jobFamily, families map[jobFamily][]parallel.Config, distinct int, priced map[Job]Result) {
	// Chunk so the distinct misses spread across the pool while
	// each batch stays large enough to amortize its setup.
	size := (distinct + p.workers - 1) / p.workers
	if size < 1 {
		size = 1
	}
	if size > sweepChunkCap {
		size = sweepChunkCap
	}
	type chunk struct {
		fam  jobFamily
		cfgs []parallel.Config
	}
	var chunks []chunk
	for _, f := range order {
		cfgs := families[f]
		for s := 0; s < len(cfgs); s += size {
			e := s + size
			if e > len(cfgs) {
				e = len(cfgs)
			}
			chunks = append(chunks, chunk{fam: f, cfgs: cfgs[s:e]})
		}
	}
	results := make([][]Result, len(chunks))
	p.Map(len(chunks), func(ci int) {
		c := chunks[ci]
		rs := make([]Result, len(c.cfgs))
		be, err := cost.NewBackend(c.fam.Backend)
		if err != nil {
			for k := range rs {
				rs[k] = Result{Err: err}
			}
			results[ci] = rs
			return
		}
		p.Do(func() {
			bs, es := cost.PriceBatch(be, c.fam.Model, c.fam.Wafer, c.cfgs, c.fam.Opts)
			for k := range rs {
				rs[k] = Result{Breakdown: bs[k], Err: es[k]}
			}
		})
		results[ci] = rs
	})
	p.cache.batchCalls.Add(int64(len(chunks)))
	p.cache.batchedJobs.Add(int64(distinct))
	for ci, c := range chunks {
		for k, cfg := range c.cfgs {
			j := Job{Model: c.fam.Model, Wafer: c.fam.Wafer, Config: cfg,
				Opts: c.fam.Opts, Backend: c.fam.Backend}
			priced[j] = results[ci][k]
		}
	}
}

// Map runs f(0..n-1) across the pool's workers. Each index runs
// exactly once; f must be safe for concurrent invocation when the
// pool has more than one worker.
func (p *Pool) Map(n int, f func(i int)) {
	ForEach(p.workers, n, f)
}

// ForEach runs f(0..n-1) across at most workers goroutines. With one
// worker (or one item) it degenerates to a plain serial loop, so
// callers can treat it as the single fan-out primitive at any
// parallelism level.
func ForEach(workers, n int, f func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstPanic atomic.Pointer[PanicError]
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			// A panic in f unwinds this goroutine; the deferred recover
			// publishes it (first wins) instead of crashing the process.
			// Keeping the recover at the goroutine top — not per item —
			// keeps the loop body allocation-free.
			defer func() {
				if r := recover(); r != nil {
					firstPanic.CompareAndSwap(nil, newPanicError(r))
				}
			}()
			for firstPanic.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
	if pe := firstPanic.Load(); pe != nil {
		// Surface the first worker panic to the caller. The serial path
		// above propagates panics naturally; here we re-panic with the
		// captured value plus its original stack.
		panic(pe)
	}
}

// defaultPool serves the package-level helpers; the CLIs retune its
// worker bound via SetWorkers while every caller keeps sharing one
// cache.
var defaultPool atomic.Pointer[Pool]

func init() {
	defaultPool.Store(New(0))
}

// Default returns the shared pool.
func Default() *Pool { return defaultPool.Load() }

// swapDefault replaces the shared pool with a copy that edit
// retunes, keeping its cache (and so the attached disk memo) and
// giving it a fresh worker bound. In-flight evaluations finish on the
// pool they started on.
func swapDefault(edit func(p *Pool)) {
	p := *Default()
	edit(&p)
	p.sem = make(chan struct{}, p.workers)
	defaultPool.Store(&p)
}

// SetWorkers rebounds the shared pool's worker count, retaining the
// shared cache contents, the default backend and any coalescer.
func SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	swapDefault(func(p *Pool) { p.workers = n })
}

// Workers returns the shared pool's worker bound.
func Workers() int { return Default().workers }

// SetDefaultBackend retargets the shared pool's default cost backend:
// every job that does not name a backend explicitly is priced by this
// tier from now on. The cache is retained — backend keys are part of
// the memo key, so tiers never cross-contaminate. The key must
// resolve (see cost.NewBackend); it is returned canonicalized.
func SetDefaultBackend(key string) (string, error) {
	canon := cost.CanonicalBackendKey(key)
	if _, err := cost.NewBackend(canon); err != nil {
		return "", err
	}
	swapDefault(func(p *Pool) { p.backend = canon })
	return canon, nil
}

// DefaultBackend returns the shared pool's default backend key (""
// means analytic).
func DefaultBackend() string { return Default().backend }

// SetDiskMemo(nil) detaches the pool's persistent memo: fresh results
// stop being appended, and the records it loaded stay memoized. A memo
// is attached by AttachDiskMemo, which loads it into this pool's memo.
func (p *Pool) SetDiskMemo(d *DiskMemo) { p.cache.disk.Store(d) }

// AttachDiskMemo opens (creating if needed) the persistent memo in dir
// and attaches it to the shared pool — the CLIs' -memo-dir / TEMPMEMO
// hook. Returns the memo so callers can Close it on exit.
func AttachDiskMemo(dir string) (*DiskMemo, error) { return Default().AttachDiskMemo(dir) }

// HasDiskMemo reports whether the shared pool has a memo attached —
// what a fabric worker advertises in its hello so the coordinator
// knows whether to sync warm state.
func HasDiskMemo() bool { return Default().cache.disk.Load() != nil }

// MemoSegment returns the valid prefix of the shared pool's memo file
// and its record count, for shipping warm state to shared-nothing
// workers (distrib memo sync). Returns (nil, 0) when no memo is
// attached, its file holds no record, or it cannot be read — sync is
// an optimization, never a failure mode.
func MemoSegment() ([]byte, int) {
	d := Default().cache.disk.Load()
	if d == nil {
		return nil, 0
	}
	return d.segment()
}

// ImportMemoSegment publishes a shipped memo segment's records into
// the shared pool's memo, each marked as loaded from disk (the
// shared-nothing worker case). Returns the records added.
func ImportMemoSegment(data []byte) (int, error) { return Default().importSegment(data) }

// CountersSnapshot returns the shared engine's cache counters — the
// single accessor CLIs and the serving daemon read instead of
// reaching into pool internals.
func CountersSnapshot() Stats { return Default().cache.Stats() }

// EvaluateJob runs one memoized evaluation of an explicit job on the
// shared pool.
func EvaluateJob(j Job) (cost.Breakdown, error) { return Default().EvaluateJob(j) }

// Sweep fans jobs out on the shared pool.
func Sweep(jobs []Job) []Result { return Default().Sweep(jobs) }

// Map runs f(0..n-1) on the shared pool.
func Map(n int, f func(i int)) { Default().Map(n, f) }

// Do runs one leaf computation under the shared pool's global
// evaluation bound.
func Do(f func()) { Default().Do(f) }
