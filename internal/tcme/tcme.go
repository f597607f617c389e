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
	"fmt"
	"sort"
	"sync"

	"temp/internal/mesh"
)

// denseState is the optimizer's per-Optimize scratch over the
// topology's canonical link index: flat load/count accumulators and a
// hot-link bitmap. The bottleneck scan walks link IDs in sorted
// (From, To) order, and each accumulator sums in flow order, then
// route order. Every route must be a sequence of mesh links (see
// mesh.Topology.Time); a step between non-adjacent dies panics.
type denseState struct {
	t       *mesh.Topology
	loads   []float64
	cnt     []int32
	touched []int32
	hot     []bool
}

var densePool = sync.Pool{New: func() any { return new(denseState) }}

// newDense returns pooled scratch sized for t's link index.
func newDense(t *mesh.Topology) *denseState {
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
	return d
}

func (d *denseState) release() {
	d.reset()
	densePool.Put(d)
}

// reset clears only the touched entries.
func (d *denseState) reset() {
	for _, id := range d.touched {
		d.loads[id] = 0
		d.cnt[id] = 0
	}
	d.touched = d.touched[:0]
}

// accumulate recomputes the per-link loads of p. The optimizer's own
// moves only ever produce mesh-adjacent routes, so the IDs stay valid
// throughout an Optimize run.
func (d *denseState) accumulate(p mesh.Phase) {
	d.reset()
	for i := range p.Flows {
		f := &p.Flows[i]
		for j := 0; j+1 < len(f.Route); j++ {
			id := d.t.LinkID(mesh.Link{From: f.Route[j], To: f.Route[j+1]})
			if d.cnt[id] == 0 {
				d.touched = append(d.touched, int32(id))
			}
			d.cnt[id]++
			d.loads[id] += f.Bytes
		}
	}
}

// maxLoad returns the most loaded link and its load, ties broken by
// ascending (From, To) — which is ascending link ID. An empty phase
// yields a zero link and zero load.
func (d *denseState) maxLoad(p mesh.Phase) (mesh.Link, float64) {
	d.accumulate(p)
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
	return best, bestLoad
}

// potential computes the phase potential from the dense accumulators.
func (d *denseState) potential(p mesh.Phase) potential {
	d.accumulate(p)
	var pot potential
	for _, id := range d.touched {
		if d.loads[id] > pot.max {
			pot.max = d.loads[id]
		}
	}
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

// Options tunes the optimizer; the zero value enables everything with
// the default iteration cap.
type Options struct {
	// MaxIter caps the optimization loop; 0 means DefaultMaxIter.
	MaxIter int
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
// MAX_ITER is hit.
func Optimize(t *mesh.Topology, p mesh.Phase, opts Options) Result {
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	cur := clonePhase(p)
	uniform := uniformBytes(cur)
	res := Result{}
	d := newDense(t)
	_, res.InitialMaxLoad = d.maxLoad(cur)

	for iter := 0; iter < maxIter; iter++ {
		mcl, load := d.maxLoad(cur)
		if load <= 0 {
			break
		}
		res.Iterations++
		moves := 0
		hot := hotFlowIdx(cur, mcl)

		if !opts.DisableMerge {
			merged := mergeDuplicates(t, &cur, hot)
			res.MergedFlows += merged
			moves += merged
			if merged > 0 {
				mcl, _ = d.maxLoad(cur)
				hot = hotFlowIdx(cur, mcl)
			}
		}
		if !opts.DisableReroute {
			rev := reverseGroups(t, &cur, d)
			res.ReroutedFlows += rev
			moves += rev
			if rev > 0 {
				mcl, _ = d.maxLoad(cur)
				hot = hotFlowIdx(cur, mcl)
			}
			rr := reroute(t, &cur, hot, d, uniform)
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
	for i, p := range phases {
		r := Optimize(t, p, opts)
		out[i] = r.Phase
		agg.Add(r)
	}
	return out, agg
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

// uniformBytes reports whether every flow of p carries the same
// bytes. Every move keeps each flow's bytes (merged trees carry their
// group's), so a phase stays uniform throughout an Optimize run.
func uniformBytes(p mesh.Phase) bool {
	for i := range p.Flows {
		if p.Flows[i].Bytes != p.Flows[0].Bytes {
			return false
		}
	}
	return true
}

func clonePhase(p mesh.Phase) mesh.Phase {
	out := mesh.Phase{Flows: make([]mesh.Flow, len(p.Flows))}
	copy(out.Flows, p.Flows)
	return out
}

// hotFlowIdx returns the indices of flows crossing the given link,
// largest first (deterministic).
func hotFlowIdx(p mesh.Phase, l mesh.Link) []int {
	var idx []int
	for i := range p.Flows {
		r := p.Flows[i].Route
		for j := 0; j+1 < len(r); j++ {
			if (mesh.Link{From: r[j], To: r[j+1]}) == l {
				idx = append(idx, i)
				break
			}
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		fa, fb := p.Flows[idx[a]], p.Flows[idx[b]]
		if fa.Bytes != fb.Bytes {
			return fa.Bytes > fb.Bytes
		}
		return idx[a] < idx[b]
	})
	return idx
}

// mergeDuplicates finds groups of hot flows that carry the same
// payload from the same source to different destinations and replaces
// each group (across the whole phase) with a multicast tree. Returns
// the number of unicast flows eliminated.
func mergeDuplicates(t *mesh.Topology, p *mesh.Phase, hot []int) int {
	type key struct {
		src     mesh.DieID
		payload string
	}
	groups := map[key][]int{}
	for _, i := range hot {
		f := p.Flows[i]
		if f.Payload == "" {
			continue
		}
		k := key{f.Src, f.Payload}
		groups[k] = append(groups[k], i)
	}
	// Extend each group with same-key flows elsewhere in the phase.
	for i, f := range p.Flows {
		if f.Payload == "" {
			continue
		}
		k := key{f.Src, f.Payload}
		if g, ok := groups[k]; ok && !contains(g, i) {
			groups[k] = append(groups[k], i)
		}
	}
	keys := make([]key, 0, len(groups))
	for k, g := range groups {
		if len(g) > 1 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].src != keys[b].src {
			return keys[a].src < keys[b].src
		}
		return keys[a].payload < keys[b].payload
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

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
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

// groupKey extracts the collective-instance tag from a payload: the
// prefix up to the first '.' (collective.Merge prepends "s<i>." per
// concurrent sequence). Flows sharing a key belong to one logical
// ring step or chain whose orientation can be flipped as a unit.
func groupKey(payload string) string {
	for i := 0; i < len(payload); i++ {
		if payload[i] == '.' {
			return payload[:i]
		}
	}
	return payload
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
	// Mark bottleneck-level links in the hot bitmap; d.loads still holds
	// p's accumulation from potential above.
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
	// Collect groups crossing any hot link.
	groupOf := map[string][]int{}
	for i, f := range p.Flows {
		k := groupKey(f.Payload)
		if k == "" {
			continue
		}
		groupOf[k] = append(groupOf[k], i)
	}
	var keys []string
	for k, idx := range groupOf {
		crosses := false
		for _, i := range idx {
			if crossesHot(p.Flows[i].Route) {
				crosses = true
				break
			}
		}
		if crosses && len(idx) > 0 {
			keys = append(keys, k)
		}
	}
	// Clear the bitmap before candidate evaluation re-accumulates (and
	// re-populates touched with) candidate state.
	for _, id := range d.touched {
		d.hot[id] = false
	}
	sort.Strings(keys)
	for _, k := range keys {
		idx := groupOf[k]
		candidate := clonePhase(*p)
		ok := true
		for _, i := range idx {
			f := candidate.Flows[i]
			rev := make(mesh.Path, len(f.Route))
			for j := range f.Route {
				rev[j] = f.Route[len(f.Route)-1-j]
			}
			if !rev.Valid(t) {
				ok = false
				break
			}
			candidate.Flows[i] = mesh.Flow{
				Src: f.Dst, Dst: f.Src, Bytes: f.Bytes, Route: rev, Payload: f.Payload,
			}
		}
		if !ok {
			continue
		}
		if d.potential(candidate).less(cur) {
			*p = candidate
			// One flip per iteration: re-evaluate from the new
			// bottleneck next round.
			return len(idx)
		}
	}
	return 0
}

// reroute tries to move hot flows onto less-loaded paths (the
// CanReroute step of Fig. 11(d)). A reroute is accepted only when it
// strictly decreases the phase potential, which keeps the loop
// monotone. Returns the number of accepted reroutes.
//
// In a uniform phase every load is one byte value added count times,
// so links are weighed by traversal count: weighing by the rounded
// load-minus-own-bytes would let the byte scale pick between
// equal-cost routes. At unit bytes the two weights are equal.
func reroute(t *mesh.Topology, p *mesh.Phase, hot []int, d *denseState, uniform bool) int {
	count := 0
	for _, i := range hot {
		f := p.Flows[i]
		if f.Src == f.Dst || f.Route.Hops() == 0 {
			continue
		}
		cur := d.potential(*p)
		// Remove this flow's own contribution so the weight reflects
		// the load it would join.
		for j := 0; j+1 < len(f.Route); j++ {
			id := t.LinkID(mesh.Link{From: f.Route[j], To: f.Route[j+1]})
			d.loads[id] -= f.Bytes
			d.cnt[id]--
		}
		if uniform {
			for _, id := range d.touched {
				d.loads[id] = float64(d.cnt[id])
			}
		}
		var norm float64
		for _, id := range d.touched {
			if d.loads[id] > norm {
				norm = d.loads[id]
			}
		}
		if norm <= 0 {
			norm = 1
		}
		alt := t.RouteWeighted(f.Src, f.Dst, func(l mesh.Link) float64 {
			return 4 * d.loads[t.LinkID(l)] / norm
		})
		if alt == nil || samePath(alt, f.Route) {
			continue
		}
		old := f.Route
		p.Flows[i].Route = alt
		if d.potential(*p).less(cur) {
			count++
		} else {
			p.Flows[i].Route = old
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
