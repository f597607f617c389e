// Package tcme implements the Traffic-Conscious Mapping Engine's
// communication optimizer (§VI-B, Fig. 11): given a phase of
// concurrent flows produced by hybrid parallel strategies, it
// iteratively (1) identifies the most congested link, (2) collects
// the flows crossing it, (3) merges redundant same-payload flows into
// multicast trees, (4) reroutes the rest over idle links via
// load-weighted shortest paths, and (5) re-evaluates until the
// bottleneck load stops improving or an iteration cap is reached.
package tcme

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"temp/internal/mesh"
	"temp/internal/unit"
)

// denseState is the optimizer's per-Optimize state over the
// topology's canonical link index: per-link loads and traversal
// counts, a hot-link bitmap, the payload-group index, and the buffers
// a candidate move is staged in. The bottleneck scan walks link IDs in
// sorted (From, To) order, and each accumulator sums in flow order,
// then route order. Every route must be a sequence of mesh links (see
// mesh.Topology.Time); a step between non-adjacent dies panics.
//
// Every move is applied in place to the phase Optimize owns and moves
// its flows' traversals by a delta, so a rejected move is undone by
// the reverse delta. How a move is priced depends on the mode, fixed
// per Optimize run:
//
//   - Count mode (bytes > 0): every flow carries bytes, so every link
//     load is bytes added count times, and loads holds the counts.
//     Moves keep the counts, their histogram and its top in step with
//     the phase, and a price reads (max count, links at max) from the
//     histogram in O(1).
//   - Walk mode (bytes == 0), for every other phase (flows carrying
//     different bytes): loads holds byte sums, and every price re-walks
//     the whole phase, since float sums taken in another order round
//     differently. It is also count mode's test oracle.
type denseState struct {
	t       *mesh.Topology
	loads   []float64
	cnt     []int32
	touched []int32
	hot     []bool

	bytes float64
	hist  []int32 // hist[c]: the links traversed c ≥ 1 times
	top   int32   // the highest count present, 0 for none

	// order lists the flows sorted by (payload Seq, index); group g is
	// order[bounds[g]:bounds[g+1]]. Only a merge changes which flows a
	// phase holds, so the index is built on entry and after each merge.
	order, bounds []int32
	cands         []int32
	hotIdx        []int

	// A staged move replaced flows staged[k] by new ones, keeping the
	// old in saved[k]; path holds the new routes back to back, in
	// staging order, until the move is committed.
	staged []int
	saved  []mesh.Flow
	path   mesh.Path
}

var densePool = sync.Pool{New: func() any { return new(denseState) }}

// newDense returns pooled state sized for t's link index and loaded
// from p, in count mode when bytes > 0.
func newDense(t *mesh.Topology, p mesh.Phase, bytes float64) *denseState {
	d := densePool.Get().(*denseState)
	d.t = t
	n := t.NumLinks()
	if cap(d.loads) < n {
		d.loads = make([]float64, n)
		d.cnt = make([]int32, n)
		d.hot = make([]bool, n)
	}
	d.loads = d.loads[:n]
	d.cnt = d.cnt[:n]
	d.hot = d.hot[:n]
	d.touched = d.touched[:0]
	d.bytes = bytes
	d.load(p)
	return d
}

func (d *denseState) release() {
	d.reset()
	densePool.Put(d)
}

// reset clears only the touched entries, and the histogram.
func (d *denseState) reset() {
	for _, id := range d.touched {
		d.loads[id] = 0
		d.cnt[id] = 0
	}
	d.touched = d.touched[:0]
	d.hist = append(d.hist[:0], 0)
	d.top = 0
}

// load rebuilds the accumulators and the payload-group index from p.
func (d *denseState) load(p mesh.Phase) {
	d.accumulate(p)
	d.order = d.order[:0]
	for i := range p.Flows {
		d.order = append(d.order, int32(i))
	}
	key := func(i int32) int32 { return p.Flows[i].Payload.Seq }
	slices.SortFunc(d.order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(key(a), key(b)), cmp.Compare(a, b))
	})
	d.bounds = append(d.bounds[:0], 0)
	for k := 1; k <= len(d.order); k++ {
		if k == len(d.order) || key(d.order[k]) != key(d.order[k-1]) {
			d.bounds = append(d.bounds, int32(k))
		}
	}
}

// accumulate recomputes the per-link accumulators of p. The
// optimizer's own moves only ever produce mesh-adjacent routes, so the
// IDs stay valid throughout an Optimize run.
func (d *denseState) accumulate(p mesh.Phase) {
	d.reset()
	for i := range p.Flows {
		d.apply(p.Flows[i].Route, p.Flows[i].Bytes, 1)
	}
}

// apply adds (sign 1) or removes (sign -1) one traversal of each link
// of r by a flow of b bytes.
func (d *denseState) apply(r mesh.Path, b float64, sign int32) {
	for j := 0; j+1 < len(r); j++ {
		id := d.t.LinkID(mesh.Link{From: r[j], To: r[j+1]})
		c := d.cnt[id]
		if c == 0 {
			d.touched = append(d.touched, int32(id))
		}
		n := c + sign
		d.cnt[id] = n
		if d.bytes == 0 {
			d.loads[id] += float64(sign) * b
			continue
		}
		d.loads[id] = float64(n)
		if c > 0 {
			d.hist[c]--
		}
		if n > 0 {
			if int(n) == len(d.hist) {
				d.hist = append(d.hist, 0)
			}
			d.hist[n]++
		}
		if n > d.top || (c == d.top && d.hist[c] == 0) {
			d.top = n
		}
	}
}

// peak returns the highest link load: the top count in count mode.
func (d *denseState) peak() float64 {
	if d.bytes > 0 {
		return float64(d.top)
	}
	var m float64
	for _, id := range d.touched {
		if d.loads[id] > m {
			m = d.loads[id]
		}
	}
	return m
}

// maxLoad returns the most loaded link and its load in bytes, ties
// broken by ascending (From, To) — which is ascending link ID. An
// empty phase yields a zero link and zero load.
func (d *denseState) maxLoad(p mesh.Phase) (mesh.Link, float64) {
	if d.bytes == 0 {
		d.accumulate(p)
	}
	var (
		best     mesh.Link
		bestLoad float64
		found    bool
	)
	for id := range d.loads {
		if d.cnt[id] == 0 {
			continue
		}
		if !found || d.loads[id] > bestLoad {
			best, bestLoad, found = d.t.LinkByID(id), d.loads[id], true
		}
	}
	if d.bytes > 0 {
		bestLoad = unit.RepAdd(d.bytes, int32(bestLoad))
	}
	return best, bestLoad
}

// potential returns the phase potential of p; in count mode its max
// is a count.
func (d *denseState) potential(p mesh.Phase) potential {
	if d.bytes > 0 {
		return potential{max: float64(d.top), count: int(d.hist[d.top])}
	}
	d.accumulate(p)
	pot := potential{max: d.peak()}
	if pot.max == 0 {
		return pot
	}
	thresh := pot.max * (1 - 1e-9)
	for _, id := range d.touched {
		if d.loads[id] >= thresh {
			pot.count++
		}
	}
	return pot
}

// stage replaces flow i of p by f, moving the old flow's traversals
// onto f's route.
func (d *denseState) stage(p *mesh.Phase, i int, f mesh.Flow) {
	old := p.Flows[i]
	d.staged = append(d.staged, i)
	d.saved = append(d.saved, old)
	d.apply(old.Route, old.Bytes, -1)
	d.apply(f.Route, f.Bytes, 1)
	p.Flows[i] = f
}

// undo restores the flows the staged move replaced by the reverse
// delta.
func (d *denseState) undo(p *mesh.Phase) {
	for k, i := range d.staged {
		d.apply(p.Flows[i].Route, p.Flows[i].Bytes, -1)
		d.apply(d.saved[k].Route, d.saved[k].Bytes, 1)
		p.Flows[i] = d.saved[k]
	}
	d.staged, d.saved = d.staged[:0], d.saved[:0]
}

// commit keeps the staged move, copying its routes out of the reused
// path buffer into one allocation.
func (d *denseState) commit(p *mesh.Phase) {
	routes := slices.Clone(d.path)
	for _, i := range d.staged {
		n := len(p.Flows[i].Route)
		p.Flows[i].Route, routes = routes[:n:n], routes[n:]
	}
	d.staged, d.saved = d.staged[:0], d.saved[:0]
}

// countBytes returns the bytes every flow of p carries when count mode
// can optimize p, and 0 otherwise. Count mode needs those bytes b
// positive with b·2³² finite: then b added n times is finite and
// strictly increasing over every int32 count n, so the optimizer's
// comparisons of loads decide as the same comparisons of counts (see
// cost's routePlan).
func countBytes(p mesh.Phase) float64 {
	if len(p.Flows) == 0 {
		return 0
	}
	b := p.Flows[0].Bytes
	if !(b > 0) || math.IsInf(b*(1<<32), 0) {
		return 0
	}
	for i := range p.Flows {
		if p.Flows[i].Bytes != b {
			return 0
		}
	}
	return b
}

// Options tunes the optimizer for ablations; the zero value enables
// everything. The loop runs at most DefaultMaxIter iterations.
type Options struct {
	// DisableMerge turns off multicast merging (ablation).
	DisableMerge bool
	// DisableReroute turns off congestion-aware rerouting (ablation).
	DisableReroute bool
}

// DefaultMaxIter is the MAX_ITER bound of the paper's Fig. 11(d)
// pseudo-code.
const DefaultMaxIter = 16

// Result reports one optimized phase and what the optimizer did.
type Result struct {
	Phase          mesh.Phase
	InitialMaxLoad float64
	FinalMaxLoad   float64
	Iterations     int
	MergedFlows    int
	ReroutedFlows  int
}

// Improvement returns the bottleneck-load reduction factor (≥ 1).
func (r Result) Improvement() float64 {
	if r.FinalMaxLoad <= 0 {
		return 1
	}
	return r.InitialMaxLoad / r.FinalMaxLoad
}

// Optimize runs the five-phase workflow on one communication phase.
// Following the Fig. 11(d) pseudo-code, the loop continues through
// load plateaus (a move that relieves the current bottleneck link
// without lowering the global max still makes progress — another link
// merely becomes the next bottleneck) until no move applies or
// MAX_ITER is hit. A phase whose flows all carry one positive byte
// value is optimized in count mode (see denseState).
func Optimize(t *mesh.Topology, p mesh.Phase, opts Options) Result {
	return optimize(t, p, opts, countBytes(p))
}

// optimize is Optimize in count mode when bytes > 0, which every flow
// of p must then carry, and in walk mode otherwise.
func optimize(t *mesh.Topology, p mesh.Phase, opts Options, bytes float64) Result {
	cur := clonePhase(p)
	res := Result{}
	d := newDense(t, cur, bytes)
	_, res.InitialMaxLoad = d.maxLoad(cur)

	for iter := 0; iter < DefaultMaxIter; iter++ {
		mcl, load := d.maxLoad(cur)
		if load <= 0 {
			break
		}
		res.Iterations++
		moves := 0
		hot := d.hotFlows(cur, mcl)

		if !opts.DisableMerge {
			merged := mergeDuplicates(t, &cur, hot)
			res.MergedFlows += merged
			moves += merged
			if merged > 0 {
				d.load(cur)
				mcl, _ = d.maxLoad(cur)
				hot = d.hotFlows(cur, mcl)
			}
		}
		if !opts.DisableReroute {
			rev := reverseGroups(t, &cur, d)
			res.ReroutedFlows += rev
			moves += rev
			if rev > 0 {
				mcl, _ = d.maxLoad(cur)
				hot = d.hotFlows(cur, mcl)
			}
			rr := reroute(t, &cur, hot, d)
			res.ReroutedFlows += rr
			moves += rr
		}
		if moves == 0 {
			break
		}
	}
	res.Phase = cur
	_, res.FinalMaxLoad = d.maxLoad(cur)
	d.release()
	return res
}

// OptimizeAll applies Optimize to every phase of a sequence,
// accumulating statistics.
func OptimizeAll(t *mesh.Topology, phases []mesh.Phase, opts Options) ([]mesh.Phase, Result) {
	out := make([]mesh.Phase, len(phases))
	var agg Result
	OptimizeEach(t, phases, opts, func(i int, r Result) {
		out[i] = r.Phase
		agg.Add(r)
	})
	return out, agg
}

// OptimizeEach calls fn with each phase's index and Optimize result, in
// order. Optimize is a pure function of the topology, the phase and
// the options, so a phase Equal to its predecessor (the repeated steps
// of a ring collective or stream) takes the predecessor's result: each
// run of equal phases is optimized once. fn may overwrite phases[i].
func OptimizeEach(t *mesh.Topology, phases []mesh.Phase, opts Options, fn func(i int, r Result)) {
	var prev mesh.Phase
	var r Result
	for i, ph := range phases {
		if i == 0 || !ph.Equal(prev) {
			r = Optimize(t, ph, opts)
		}
		prev = ph
		fn(i, r)
	}
}

// Add accumulates o's load and move statistics into r; r.Phase is
// left unchanged.
func (r *Result) Add(o Result) {
	r.InitialMaxLoad += o.InitialMaxLoad
	r.FinalMaxLoad += o.FinalMaxLoad
	r.Iterations += o.Iterations
	r.MergedFlows += o.MergedFlows
	r.ReroutedFlows += o.ReroutedFlows
}

func clonePhase(p mesh.Phase) mesh.Phase {
	out := mesh.Phase{Flows: make([]mesh.Flow, len(p.Flows))}
	copy(out.Flows, p.Flows)
	return out
}

// hotFlows returns the indices of flows crossing the given link,
// largest first (deterministic), in a buffer the next call reuses.
func (d *denseState) hotFlows(p mesh.Phase, l mesh.Link) []int {
	idx := d.hotIdx[:0]
	for i := range p.Flows {
		r := p.Flows[i].Route
		for j := 0; j+1 < len(r); j++ {
			if (mesh.Link{From: r[j], To: r[j+1]}) == l {
				idx = append(idx, i)
				break
			}
		}
	}
	slices.SortFunc(idx, func(a, b int) int {
		switch fa, fb := p.Flows[a].Bytes, p.Flows[b].Bytes; {
		case fa > fb:
			return -1
		case fa < fb:
			return 1
		}
		return a - b
	})
	d.hotIdx = idx
	return idx
}

// mergeDuplicates finds groups of hot flows that carry the same
// payload from the same source to different destinations and replaces
// each group (across the whole phase) with a multicast tree. Returns
// the number of unicast flows eliminated.
func mergeDuplicates(t *mesh.Topology, p *mesh.Phase, hot []int) int {
	type key struct {
		src     mesh.DieID
		payload mesh.Payload
	}
	var groups map[key][]int
	for _, i := range hot {
		f := p.Flows[i]
		if !hasTwin(*p, i) {
			continue
		}
		if groups == nil {
			groups = map[key][]int{}
		}
		k := key{f.Src, f.Payload}
		groups[k] = append(groups[k], i)
	}
	if groups == nil {
		return 0
	}
	// Extend each group with same-key flows elsewhere in the phase.
	for i, f := range p.Flows {
		k := key{f.Src, f.Payload}
		if g, ok := groups[k]; ok && !slices.Contains(g, i) {
			groups[k] = append(groups[k], i)
		}
	}
	keys := make([]key, 0, len(groups))
	for k, g := range groups {
		if len(g) > 1 {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.payload.Seq, b.payload.Seq),
			cmp.Compare(a.payload.Datum, b.payload.Datum))
	})
	if len(keys) == 0 {
		return 0
	}
	removed := map[int]bool{}
	var added []mesh.Flow
	merged := 0
	for _, k := range keys {
		g := groups[k]
		var dsts []mesh.DieID
		bytes := p.Flows[g[0]].Bytes
		uniform := true
		for _, i := range g {
			if p.Flows[i].Bytes != bytes {
				uniform = false
				break
			}
			dsts = append(dsts, p.Flows[i].Dst)
		}
		if !uniform {
			continue // different sizes ⇒ not the same datum
		}
		tree := mesh.MulticastTree(t, k.src, dsts, bytes, k.payload)
		if len(tree) == 0 {
			continue
		}
		for _, i := range g {
			removed[i] = true
		}
		added = append(added, tree...)
		merged += len(g) - 1
	}
	if merged == 0 {
		return 0
	}
	var flows []mesh.Flow
	for i, f := range p.Flows {
		if !removed[i] {
			flows = append(flows, f)
		}
	}
	p.Flows = append(flows, added...)
	return merged
}

// hasTwin reports whether another flow of p carries flow i's payload
// from the same source: a hot flow without one forms no merge group.
func hasTwin(p mesh.Phase, i int) bool {
	f := &p.Flows[i]
	for j := range p.Flows {
		if g := &p.Flows[j]; j != i && g.Src == f.Src && g.Payload == f.Payload {
			return true
		}
	}
	return false
}

// potential is the lexicographic objective the optimizer drives
// down: first the bottleneck load, then the number of links sitting
// at (within a small tolerance of) that load. Requiring every
// accepted move to strictly decrease it makes the loop monotone —
// no oscillation between symmetric equal-cost routings.
type potential struct {
	max   float64
	count int
}

// less reports whether a is strictly better (lower) than b.
func (a potential) less(b potential) bool {
	if a.max < b.max*(1-1e-12) {
		return true
	}
	if a.max > b.max*(1+1e-12) {
		return false
	}
	return a.count < b.count
}

// reverseGroups implements the pattern-level reroute of Fig. 11: when
// a ring step or P2P chain collides with another group on a
// bottleneck-level link, flipping the whole pattern's orientation
// (D3→D2→… becomes D2→D3→…) moves it onto the opposite-direction
// links. Candidate groups are those crossing any link at the current
// maximum load (symmetric scenarios have several co-equal bottleneck
// links and the profitable flip may sit on any of them). A flip is
// accepted when it strictly decreases the phase potential. Returns
// the number of flipped flows.
func reverseGroups(t *mesh.Topology, p *mesh.Phase, d *denseState) int {
	cur := d.potential(*p)
	if cur.max <= 0 {
		return 0
	}
	// Mark bottleneck-level links in the hot bitmap; d.loads holds p's
	// loads from potential above.
	thresh := cur.max * (1 - 1e-9)
	for _, id := range d.touched {
		if d.loads[id] >= thresh {
			d.hot[id] = true
		}
	}
	crossesHot := func(r mesh.Path) bool {
		for j := 0; j+1 < len(r); j++ {
			if d.hot[t.LinkID(mesh.Link{From: r[j], To: r[j+1]})] {
				return true
			}
		}
		return false
	}
	// Collect the groups crossing any hot link, in Seq order.
	d.cands = d.cands[:0]
	for g := 0; g+1 < len(d.bounds); g++ {
		for _, i := range d.order[d.bounds[g]:d.bounds[g+1]] {
			if crossesHot(p.Flows[i].Route) {
				d.cands = append(d.cands, int32(g))
				break
			}
		}
	}
	// Clear the bitmap before candidate pricing moves (and walk mode
	// re-accumulates) the touched links.
	for _, id := range d.touched {
		d.hot[id] = false
	}
	for _, g := range d.cands {
		idx := d.order[d.bounds[g]:d.bounds[g+1]]
		if !d.stageFlip(p, idx) {
			continue
		}
		if d.potential(*p).less(cur) {
			d.commit(p)
			// One flip per iteration: re-evaluate from the new
			// bottleneck next round.
			return len(idx)
		}
		d.undo(p)
	}
	return 0
}

// stageFlip stages the reversal of every flow of a group: each runs its
// route backwards from its destination. When a reversed route would
// cross a dead or missing link it stages nothing and returns false.
func (d *denseState) stageFlip(p *mesh.Phase, idx []int32) bool {
	d.path = d.path[:0]
	for _, i := range idx {
		r := p.Flows[i].Route
		start := len(d.path)
		for j := len(r) - 1; j >= 0; j-- {
			d.path = append(d.path, r[j])
		}
		if !d.path[start:].Valid(d.t) {
			return false
		}
	}
	off := 0
	for _, i := range idx {
		f := p.Flows[i]
		n := len(f.Route)
		d.stage(p, int(i), mesh.Flow{
			Src: f.Dst, Dst: f.Src, Bytes: f.Bytes, Route: d.path[off : off+n : off+n], Payload: f.Payload,
		})
		off += n
	}
	return true
}

// reroute tries to move hot flows onto less-loaded paths (the
// CanReroute step of Fig. 11(d)). A reroute is accepted only when it
// strictly decreases the phase potential, which keeps the loop
// monotone. Returns the number of accepted reroutes.
//
// Links are weighed by the load the flow would join, which count mode
// holds as traversal counts: weighing a uniform phase by its rounded
// load minus the flow's own bytes would let the byte scale pick
// between equal-cost routes. At unit bytes the two weights are equal.
func reroute(t *mesh.Topology, p *mesh.Phase, hot []int, d *denseState) int {
	count := 0
	for _, i := range hot {
		f := p.Flows[i]
		if f.Src == f.Dst || f.Route.Hops() == 0 {
			continue
		}
		cur := d.potential(*p)
		// Remove this flow's own contribution so the weight reflects
		// the load it would join.
		d.apply(f.Route, f.Bytes, -1)
		norm := d.peak()
		if norm <= 0 {
			norm = 1
		}
		alt := t.AppendRouteWeighted(d.path[:0], f.Src, f.Dst, func(l mesh.Link) float64 {
			return 4 * d.loads[t.LinkID(l)] / norm
		})
		d.apply(f.Route, f.Bytes, 1)
		if alt == nil || samePath(alt, f.Route) {
			continue
		}
		d.path = alt
		f.Route = alt
		d.stage(p, i, f)
		if d.potential(*p).less(cur) {
			d.commit(p)
			count++
		} else {
			d.undo(p)
		}
	}
	return count
}

func samePath(a, b mesh.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String summarises a result for logs.
func (r Result) String() string {
	return fmt.Sprintf("tcme{max %.3g→%.3g (%.2fx), %d iters, %d merged, %d rerouted}",
		r.InitialMaxLoad, r.FinalMaxLoad, r.Improvement(), r.Iterations, r.MergedFlows, r.ReroutedFlows)
}
