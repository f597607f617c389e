package solver

import (
	"math"
	"sync/atomic"

	"temp/internal/model"
	"temp/internal/parallel"
)

// unpriced marks a term-table cell no evaluation has filled yet: a
// signaling-NaN bit pattern. Float arithmetic only ever produces quiet
// NaNs, so every value a cost model computes — NaN, ±Inf and −0
// included — is distinguishable from it.
const unpriced = 0x7ff0_0000_dead_beef

// evaluator wraps a CostModel to count evaluations and memoize. It is
// the shared pricing core every search strategy runs on. The terms of
// Eq. (4) are keyed by small dense integers, so they live in flat
// lock-free tables of float64 bits, every cell starting at unpriced:
// intra is indexed op*|S|+cfg, inter (op*|S|+a)*|S|+b (row op couples
// op-1 → op; op 0 has no coupling term) and mem cfg. Parallel workers
// share one set of tables. The count is the number of distinct terms
// evaluated, which is identical in serial and parallel runs.
type evaluator struct {
	cm    CostModel
	ops   []model.Op
	space []parallel.Config
	n     atomic.Int64

	intra, inter, mem []atomic.Uint64
}

func newEvaluator(cm CostModel, ops []model.Op, space []parallel.Config) *evaluator {
	s := len(space)
	return &evaluator{
		cm: cm, ops: ops, space: space,
		intra: newTermTable(len(ops) * s),
		inter: newTermTable(len(ops) * s * s),
		mem:   newTermTable(s),
	}
}

func newTermTable(n int) []atomic.Uint64 {
	t := make([]atomic.Uint64, n)
	for i := range t {
		t[i].Store(unpriced)
	}
	return t
}

func (e *evaluator) intraIdx(op, cfg int) int { return op*len(e.space) + cfg }

func (e *evaluator) interIdx(op, a, b int) int { return (op*len(e.space)+a)*len(e.space) + b }

// fill stores a freshly computed term v in cell c. The one
// CompareAndSwap that replaces unpriced is the fresh evaluation and
// is counted; a goroutine that loses the race returns the stored
// value. Concurrent computations of one term may both run, but only
// the first store counts, so Stats.Evaluations and the MaxEvals budget
// count distinct terms and stay exact at any worker count.
func (e *evaluator) fill(c *atomic.Uint64, v float64) float64 {
	if c.CompareAndSwap(unpriced, math.Float64bits(v)) {
		e.n.Add(1)
		return v
	}
	return math.Float64frombits(c.Load())
}

// peek returns the term in cell c without computing anything, and
// whether it has been priced.
func peek(c *atomic.Uint64) (float64, bool) {
	b := c.Load()
	return math.Float64frombits(b), b != unpriced
}

func (e *evaluator) intraCost(op, cfg int) float64 {
	c := &e.intra[e.intraIdx(op, cfg)]
	if v, ok := peek(c); ok {
		return v
	}
	return e.fill(c, e.cm.Intra(e.ops[op], e.space[cfg]))
}

func (e *evaluator) interCost(op int, a, b int) float64 {
	if op == 0 {
		return 0
	}
	c := &e.inter[e.interIdx(op, a, b)]
	if v, ok := peek(c); ok {
		return v
	}
	return e.fill(c, e.cm.Inter(e.ops[op-1], e.ops[op], e.space[a], e.space[b]))
}

func (e *evaluator) memoryOK(cfg int) bool {
	c := &e.mem[cfg]
	if v, ok := peek(c); ok {
		return v == 1
	}
	v := 0.0
	if e.cm.MemoryOK(e.space[cfg]) {
		v = 1
	}
	return e.fill(c, v) == 1
}

// oomPenalty dominates any latency; an assignment with an
// out-of-memory gene can never beat a feasible one.
const oomPenalty = 1e6

func (e *evaluator) penalty(cfg int) float64 {
	if e.memoryOK(cfg) {
		return 0
	}
	return oomPenalty
}

// assignmentCost totals the chain objective of Eq. (4) plus an OOM
// penalty for strategies that exceed per-die memory.
func (e *evaluator) assignmentCost(a Assignment) float64 {
	var total float64
	for i, cfg := range a {
		total += e.intraCost(i, cfg) + e.penalty(cfg)
		if i > 0 {
			total += e.interCost(i, a[i-1], cfg)
		}
	}
	return total
}

// seedDP runs the level-1 chain dynamic program per residual-free
// segment (§VII-B) and returns the joint DP assignment — the seed
// every local-search strategy starts from.
func (e *evaluator) seedDP(g model.Graph) Assignment {
	assign := make(Assignment, len(g.Ops))
	offset := 0
	for _, seg := range g.Segments() {
		segAssign := chainDP(e, offset, len(seg))
		copy(assign[offset:], segAssign)
		offset += len(seg)
	}
	return assign
}

// chainDP solves the per-operator assignment of a chain segment
// [offset, offset+n) optimally in O(n·|S|²).
func chainDP(ev *evaluator, offset, n int) Assignment {
	s := len(ev.space)
	cost := make([][]float64, n)
	from := make([][]int, n)
	for i := range cost {
		cost[i] = make([]float64, s)
		from[i] = make([]int, s)
	}
	for c := 0; c < s; c++ {
		cost[0][c] = ev.intraCost(offset, c) + ev.penalty(c)
	}
	for i := 1; i < n; i++ {
		for c := 0; c < s; c++ {
			best := math.Inf(1)
			bestFrom := 0
			for p := 0; p < s; p++ {
				v := cost[i-1][p] + ev.interCost(offset+i, p, c)
				if v < best {
					best = v
					bestFrom = p
				}
			}
			cost[i][c] = best + ev.intraCost(offset+i, c) + ev.penalty(c)
			from[i][c] = bestFrom
		}
	}
	// Trace back from the cheapest terminal state.
	bestC := 0
	for c := 1; c < s; c++ {
		if cost[n-1][c] < cost[n-1][bestC] {
			bestC = c
		}
	}
	out := make(Assignment, n)
	out[n-1] = bestC
	for i := n - 1; i > 0; i-- {
		out[i-1] = from[i][out[i]]
	}
	return out
}

// incremental is the delta-cost view of one working assignment: it
// caches the per-position intra+penalty and inter terms, so pricing a
// one-gene move recomputes only the (at most three) affected
// cost-model terms instead of the full chain. Totals are summed in
// exactly assignmentCost's left-to-right order over the same memoized
// term values, so they equal a full recomputation bit-for-bit.
type incremental struct {
	ev     *evaluator
	assign Assignment
	// intraPen[i] is intraCost(i, assign[i]) + penalty(assign[i]),
	// added as one expression like assignmentCost does.
	intraPen []float64
	// inter[i] couples op i-1 → i; inter[0] is always zero.
	inter []float64
}

// incremental snapshots a starting assignment (copied, not aliased).
func (e *evaluator) incremental(a Assignment) *incremental {
	inc := &incremental{
		ev:       e,
		assign:   append(Assignment(nil), a...),
		intraPen: make([]float64, len(a)),
		inter:    make([]float64, len(a)),
	}
	for i, cfg := range inc.assign {
		inc.intraPen[i] = e.intraCost(i, cfg) + e.penalty(cfg)
		if i > 0 {
			inc.inter[i] = e.interCost(i, inc.assign[i-1], cfg)
		}
	}
	return inc
}

// cost totals the cached terms; bit-identical to
// assignmentCost(inc.assign).
func (inc *incremental) cost() float64 {
	var total float64
	for i := range inc.assign {
		total += inc.intraPen[i]
		if i > 0 {
			total += inc.inter[i]
		}
	}
	return total
}

// moveCost prices the assignment with gene i set to cfg without
// applying the move. Only the affected terms hit the cost model; the
// rest come from the cache.
func (inc *incremental) moveCost(i, cfg int) float64 {
	ip := inc.ev.intraCost(i, cfg) + inc.ev.penalty(cfg)
	var inPrev, inNext float64
	if i > 0 {
		inPrev = inc.ev.interCost(i, inc.assign[i-1], cfg)
	}
	if i+1 < len(inc.assign) {
		inNext = inc.ev.interCost(i+1, cfg, inc.assign[i+1])
	}
	var total float64
	for j := range inc.assign {
		t := inc.intraPen[j]
		if j == i {
			t = ip
		}
		total += t
		if j > 0 {
			e := inc.inter[j]
			switch j {
			case i:
				e = inPrev
			case i + 1:
				e = inNext
			}
			total += e
		}
	}
	return total
}

// apply commits the move, refreshing the affected cached terms.
func (inc *incremental) apply(i, cfg int) {
	inc.assign[i] = cfg
	inc.intraPen[i] = inc.ev.intraCost(i, cfg) + inc.ev.penalty(cfg)
	if i > 0 {
		inc.inter[i] = inc.ev.interCost(i, inc.assign[i-1], cfg)
	}
	if i+1 < len(inc.assign) {
		inc.inter[i+1] = inc.ev.interCost(i+1, cfg, inc.assign[i+1])
	}
}
