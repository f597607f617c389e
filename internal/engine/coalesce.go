package engine

import (
	"sync"
	"time"

	"temp/internal/parallel"
)

// Coalescer merges concurrent Sweeps' cache misses across callers
// before batched pricing — the serving daemon's cross-request
// batching layer. Each Sweep that reaches its miss path submits its
// family-grouped configuration lists and blocks; the coalescer holds
// submissions for a short window (or until enough distinct jobs
// accumulate), merges everything pending into per-family unions with
// cross-submission dedup, prices the unions through the pool's
// chunked cost.PriceBatch path, and hands every submitter its slice
// of the results.
//
// Results are bit-identical to uncoalesced sweeps: batched kernels
// are grouping-invariant (pinned by TestPriceBatchMatchesPrice), and
// Sweep publishes coalesced results into the memo exactly as it does
// its own, so hit/miss counters match an uncoalesced sweep. The only
// observable differences are latency (a submission waits up to the
// window for peers) and fewer duplicate pricings when two requests
// miss on the same job at the same time.
type Coalescer struct {
	// pool prices flushes; nil means the shared Default() pool at
	// flush time (so the coalescer survives SetWorkers swaps).
	pool *Pool
	// window is how long the first submission of a batch waits for
	// peers; <= 0 flushes every submission immediately (no
	// cross-request merging, same code path).
	window time.Duration
	// maxJobs flushes early once this many distinct jobs are pending.
	maxJobs int

	mu        sync.Mutex
	pending   []*coalesceSub
	distinct  int
	scheduled bool
}

// coalesceSub is one Sweep's blocked submission.
type coalesceSub struct {
	order    []jobFamily
	families map[jobFamily][]parallel.Config
	priced   map[Job]Result
	done     chan struct{}
}

// defaultCoalesceMaxJobs bounds pending work before an early flush:
// enough to fill several PriceBatch chunks per flush without letting
// a burst of large sweeps pile up latency behind one timer.
const defaultCoalesceMaxJobs = 4 * sweepChunkCap

// NewCoalescer returns a coalescer pricing through p (nil = the
// shared pool, resolved at each flush). window <= 0 disables the
// wait-for-peers hold; maxJobs <= 0 selects the default early-flush
// bound.
func NewCoalescer(p *Pool, window time.Duration, maxJobs int) *Coalescer {
	if maxJobs <= 0 {
		maxJobs = defaultCoalesceMaxJobs
	}
	return &Coalescer{pool: p, window: window, maxJobs: maxJobs}
}

// target resolves the pool pricing this coalescer's flushes.
func (c *Coalescer) target() *Pool {
	if c.pool != nil {
		return c.pool
	}
	return Default()
}

// price submits one sweep's family-grouped misses and blocks until a
// flush has priced them, writing results into priced.
func (c *Coalescer) price(order []jobFamily, families map[jobFamily][]parallel.Config, priced map[Job]Result) {
	sub := &coalesceSub{order: order, families: families, priced: priced, done: make(chan struct{})}
	n := 0
	for _, cfgs := range families {
		n += len(cfgs)
	}
	c.mu.Lock()
	c.pending = append(c.pending, sub)
	c.distinct += n
	switch {
	case c.distinct >= c.maxJobs || c.window <= 0:
		// Enough work (or no hold window): flush synchronously in this
		// goroutine. A timer-scheduled flush racing with this one finds
		// an empty pending list and is a no-op.
		batch := c.take()
		c.mu.Unlock()
		c.flush(batch)
	case !c.scheduled:
		c.scheduled = true
		c.mu.Unlock()
		time.AfterFunc(c.window, func() {
			c.mu.Lock()
			batch := c.take()
			c.mu.Unlock()
			c.flush(batch)
		})
	default:
		c.mu.Unlock()
	}
	<-sub.done
}

// take claims everything pending (caller holds mu).
func (c *Coalescer) take() []*coalesceSub {
	batch := c.pending
	c.pending = nil
	c.distinct = 0
	c.scheduled = false
	return batch
}

// flush merges a batch of submissions into per-family config unions,
// prices them once, and distributes results to every submitter. A
// batch of one prices its own families in its own order.
func (c *Coalescer) flush(batch []*coalesceSub) {
	if len(batch) == 0 {
		return
	}
	p := c.target()

	// Union the submissions: families in first-seen order, configs
	// deduped across submitters within each family.
	var order []jobFamily
	union := make(map[jobFamily][]parallel.Config)
	seen := make(map[Job]bool)
	shared := 0
	distinct := 0
	for _, s := range batch {
		for _, f := range s.order {
			if _, ok := union[f]; !ok {
				order = append(order, f)
			}
			for _, cfg := range s.families[f] {
				j := Job{Model: f.Model, Wafer: f.Wafer, Config: cfg, Opts: f.Opts, Backend: f.Backend}
				if seen[j] {
					shared++ // a second request wanted the same job
					continue
				}
				seen[j] = true
				union[f] = append(union[f], cfg)
				distinct++
			}
		}
	}
	merged := make(map[Job]Result, distinct)
	p.priceFamilies(order, union, distinct, merged)
	p.cache.coalFlushes.Add(1)
	p.cache.coalJobs.Add(int64(distinct))
	p.cache.coalShared.Add(int64(shared))
	for _, s := range batch {
		for _, f := range s.order {
			for _, cfg := range s.families[f] {
				j := Job{Model: f.Model, Wafer: f.Wafer, Config: cfg, Opts: f.Opts, Backend: f.Backend}
				s.priced[j] = merged[j]
			}
		}
		close(s.done)
	}
}

// SetCoalescer attaches (or, with nil, detaches) a cross-request miss
// coalescer to the shared pool. Subsequent Sweeps route their batched
// miss pricing through it; in-flight sweeps on the previous pool
// value finish on whichever path they started.
func SetCoalescer(co *Coalescer) {
	swapDefault(func(p *Pool) { p.coal = co })
}

// Coalescing reports whether the shared pool has a coalescer
// attached.
func Coalescing() bool { return Default().coal != nil }
