package tcme

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"temp/internal/collective"
	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/unit"
)

func topo(r, c int) *mesh.Topology { return mesh.New(r, c, hw.TableID2D()) }

// flow is an XY-routed flow of the flip group seq, carrying datum 0:
// flows of one seq from one source are twins that may merge.
func flow(t *mesh.Topology, src, dst mesh.DieID, bytes float64, seq int32) mesh.Flow {
	return mesh.Flow{Src: src, Dst: dst, Bytes: bytes, Route: t.RouteXY(src, dst), Payload: mesh.Payload{Seq: seq}}
}

// chain is one phase of routed transfers along order, each consecutive
// pair exchanging bytes with hop i as its datum: the inter-group chain
// transfers of Fig. 11's TATP example, which Merge tags with their
// sequence.
func chain(t *mesh.Topology, order []mesh.DieID, bytes float64) []mesh.Phase {
	var ph mesh.Phase
	for i := 0; i+1 < len(order); i++ {
		ph.Flows = append(ph.Flows, mesh.Flow{Src: order[i], Dst: order[i+1], Bytes: bytes,
			Route: t.Route(order[i], order[i+1]), Payload: mesh.Payload{Datum: int32(i)}})
	}
	return []mesh.Phase{ph}
}

// TestRerouteResolvesFig5Contention reproduces the Fig. 5(b) setup:
// two flows (0→2 and 1→3 in the top row) collide on link 1→2 under XY
// routing; the optimizer must find a detour and halve the bottleneck.
func TestRerouteResolvesFig5Contention(t *testing.T) {
	tp := topo(2, 4)
	d0, d1 := tp.ID(mesh.Coord{R: 0, C: 0}), tp.ID(mesh.Coord{R: 0, C: 1})
	d2, d3 := tp.ID(mesh.Coord{R: 0, C: 2}), tp.ID(mesh.Coord{R: 0, C: 3})
	p := mesh.Phase{Flows: []mesh.Flow{
		flow(tp, d0, d2, 64*unit.MB, 0),
		flow(tp, d1, d3, 64*unit.MB, 1),
	}}
	res := Optimize(tp, p, Options{})
	if res.FinalMaxLoad >= res.InitialMaxLoad {
		t.Fatalf("no improvement: %v", res)
	}
	if res.Improvement() < 1.9 {
		t.Errorf("improvement = %.2fx, want ~2x (Fig. 5(b))", res.Improvement())
	}
	if err := tp.ValidatePhase(res.Phase); err != nil {
		t.Fatal(err)
	}
	if res.ReroutedFlows == 0 {
		t.Error("expected at least one reroute")
	}
}

// TestMergeCollapsesReplicatedUnicasts: three unicasts of the same
// payload from one source merge into a multicast tree.
func TestMergeCollapsesReplicatedUnicasts(t *testing.T) {
	tp := topo(1, 4)
	p := mesh.Phase{Flows: []mesh.Flow{
		flow(tp, 0, 1, 32*unit.MB, 0),
		flow(tp, 0, 2, 32*unit.MB, 0),
		flow(tp, 0, 3, 32*unit.MB, 0),
	}}
	res := Optimize(tp, p, Options{})
	if res.MergedFlows < 2 {
		t.Fatalf("merged %d flows, want ≥2: %v", res.MergedFlows, res)
	}
	if res.FinalMaxLoad != 32*unit.MB {
		t.Errorf("final max load = %v, want single payload %v", res.FinalMaxLoad, 32*unit.MB)
	}
	if res.Improvement() < 2.9 {
		t.Errorf("improvement = %.2fx, want ~3x", res.Improvement())
	}
}

func TestMergeSkipsDifferentSizes(t *testing.T) {
	tp := topo(1, 4)
	p := mesh.Phase{Flows: []mesh.Flow{
		flow(tp, 0, 2, 32*unit.MB, 0),
		flow(tp, 0, 3, 16*unit.MB, 0), // same tag, different size ⇒ not the same datum
	}}
	res := Optimize(tp, p, Options{DisableReroute: true})
	if res.MergedFlows != 0 {
		t.Errorf("merged %d mismatched flows", res.MergedFlows)
	}
}

func TestAblationFlags(t *testing.T) {
	tp := topo(2, 4)
	mk := func() mesh.Phase {
		return mesh.Phase{Flows: []mesh.Flow{
			flow(tp, 0, 2, 64*unit.MB, 0),
			flow(tp, 1, 3, 64*unit.MB, 1),
			flow(tp, 0, 6, 64*unit.MB, 2),
			flow(tp, 0, 2, 64*unit.MB, 2),
		}}
	}
	full := Optimize(tp, mk(), Options{})
	noMerge := Optimize(tp, mk(), Options{DisableMerge: true})
	noReroute := Optimize(tp, mk(), Options{DisableReroute: true})
	if noMerge.MergedFlows != 0 {
		t.Error("merge ran despite DisableMerge")
	}
	if noReroute.ReroutedFlows != 0 {
		t.Error("reroute ran despite DisableReroute")
	}
	if full.FinalMaxLoad > noMerge.FinalMaxLoad || full.FinalMaxLoad > noReroute.FinalMaxLoad {
		t.Errorf("full optimizer (%v) worse than ablated (%v / %v)",
			full.FinalMaxLoad, noMerge.FinalMaxLoad, noReroute.FinalMaxLoad)
	}
}

func TestOptimizeNeverWorsens(t *testing.T) {
	tp := topo(4, 4)
	// A busy mixed phase: FSDP-style gathers + chained P2P.
	seqs := collective.Merge(
		collective.RingAllGather(tp, []mesh.DieID{0, 1, 5, 4}, 16*unit.MB),
		chain(tp, []mesh.DieID{2, 0, 8, 10}, 16*unit.MB),
		chain(tp, []mesh.DieID{3, 1, 9, 11}, 16*unit.MB),
	)
	for _, ph := range seqs {
		res := Optimize(tp, ph, Options{})
		if res.FinalMaxLoad > res.InitialMaxLoad*(1+1e-9) {
			t.Fatalf("optimizer worsened phase: %v", res)
		}
		if err := tp.ValidatePhase(res.Phase); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFig11Scenario reproduces the paper's 4×4 worked example: FSDP
// all-gather groups of four adjacent dies overlapping TATP P2P chains
// that cross them. TCME must cut the bottleneck load.
func TestFig11Scenario(t *testing.T) {
	tp := topo(4, 4)
	id := func(r, c int) mesh.DieID { return tp.ID(mesh.Coord{R: r, C: c}) }
	bytes := 32 * unit.MB
	fsdpGroups := [][]mesh.DieID{
		{id(0, 1), id(0, 0), id(1, 0), id(1, 1)},
		{id(0, 3), id(0, 2), id(1, 2), id(1, 3)},
		{id(2, 1), id(2, 0), id(3, 0), id(3, 1)},
		{id(2, 3), id(2, 2), id(3, 2), id(3, 3)},
	}
	tatpChains := [][]mesh.DieID{
		{id(0, 2), id(0, 0), id(2, 0), id(2, 2)},
		{id(0, 3), id(0, 1), id(2, 1), id(2, 3)},
		{id(1, 2), id(1, 0), id(3, 0), id(3, 2)},
		{id(1, 3), id(1, 1), id(3, 1), id(3, 3)},
	}
	var seqs [][]mesh.Phase
	for _, g := range fsdpGroups {
		seqs = append(seqs, collective.RingAllGather(tp, g, bytes))
	}
	for _, c := range tatpChains {
		seqs = append(seqs, chain(tp, c, bytes))
	}
	merged := collective.Merge(seqs...)
	var before, after float64
	for _, ph := range merged {
		res := Optimize(tp, ph, Options{})
		before += res.InitialMaxLoad
		after += res.FinalMaxLoad
	}
	if after >= before {
		t.Fatalf("TCME failed to improve Fig. 11 scenario: %v → %v", before, after)
	}
	if imp := before / after; imp < 1.2 {
		t.Errorf("improvement %.2fx, want ≥1.2x", imp)
	}
}

// faultedPhases is a 4×4 mesh with three dead links and merged
// collectives, a chain of transfers and a multicast tree on it, plus a
// Fig. 5(b)-style collision and a replicated payload whose routes
// detour around the dead 0↔1 link, so reroute and merge both fire.
func faultedPhases() (*mesh.Topology, []mesh.Phase) {
	c := mesh.Shared(4, 4, hw.TableID2D()).Clone()
	for _, l := range []mesh.Link{{From: 0, To: 1}, {From: 5, To: 9}, {From: 10, To: 11}} {
		c.SetLinkAlive(l, false)
	}
	tp := c.Intern()
	seqs := collective.Merge(
		collective.RingAllGather(tp, []mesh.DieID{0, 1, 5, 4}, 16*unit.MB),
		collective.RingAllReduce(tp, []mesh.DieID{8, 9, 10, 11, 15, 14, 13, 12}, 16*unit.MB),
		chain(tp, []mesh.DieID{2, 0, 8, 10}, 16*unit.MB),
		[]mesh.Phase{{Flows: mesh.MulticastTree(tp, 3, []mesh.DieID{1, 9, 11}, 16*unit.MB, mesh.Payload{})}},
	)
	routed := func(src, dst mesh.DieID, seq int32) mesh.Flow {
		return mesh.Flow{Src: src, Dst: dst, Bytes: 16 * unit.MB, Route: tp.Route(src, dst), Payload: mesh.Payload{Seq: seq}}
	}
	seqs = append(seqs, mesh.Phase{Flows: []mesh.Flow{
		routed(12, 14, 0), routed(13, 15, 1), routed(1, 0, 2), routed(1, 4, 2),
	}})
	return tp, seqs
}

// TestOptimizeOnFaultedMesh runs the optimizer on phases whose routes
// are RouteWeighted detours around dead links: merges and reroutes must
// stay on alive mesh links and never raise the bottleneck.
func TestOptimizeOnFaultedMesh(t *testing.T) {
	tp, seqs := faultedPhases()
	detours, merged, rerouted := 0, 0, 0
	for i, ph := range seqs {
		for _, f := range ph.Flows {
			if f.Route.Hops() > tp.HopDistance(f.Src, f.Dst) {
				detours++
			}
		}
		res := Optimize(tp, ph, Options{})
		merged += res.MergedFlows
		rerouted += res.ReroutedFlows
		if err := tp.ValidatePhase(res.Phase); err != nil {
			t.Fatalf("phase %d: %v", i, err)
		}
		for l := range res.Phase.Loads() {
			if !tp.LinkAlive(l) {
				t.Errorf("phase %d: optimizer loaded dead link %v", i, l)
			}
		}
		if res.FinalMaxLoad > res.InitialMaxLoad {
			t.Errorf("phase %d: optimizer worsened the bottleneck: %v", i, res)
		}
	}
	if detours == 0 || merged == 0 || rerouted == 0 {
		t.Fatalf("faulted scenario exercised %d detours, %d merges, %d reroutes; want all > 0",
			detours, merged, rerouted)
	}
}

// TestOptimizeLeavesInputRoutesIntact pins the contract that lets a
// frozen faulted mesh share one memoized route among flows, templates
// and route plans: the optimizer replaces a flow's route and never
// writes into one. On faultedPhases, where merges and reroutes fire,
// every input route must read the same hop for hop after Optimize.
func TestOptimizeLeavesInputRoutesIntact(t *testing.T) {
	tp, phases := faultedPhases()
	var saved [][]mesh.Path
	for _, ph := range phases {
		var routes []mesh.Path
		for _, f := range ph.Flows {
			routes = append(routes, append(mesh.Path(nil), f.Route...))
		}
		saved = append(saved, routes)
	}
	moves := 0
	for _, ph := range phases {
		res := Optimize(tp, ph, Options{})
		moves += res.MergedFlows + res.ReroutedFlows
	}
	if moves == 0 {
		t.Fatal("no merge or reroute fired")
	}
	for i, ph := range phases {
		for j, f := range ph.Flows {
			if !samePath(f.Route, saved[i][j]) {
				t.Errorf("phase %d flow %d: route %v after Optimize, %v before", i, j, f.Route, saved[i][j])
			}
		}
	}
}

// TestOptimizeOffMeshPanics pins the adjacency contract: a route step
// between non-adjacent dies has no link ID, and the optimizer panics
// rather than pricing a link the mesh does not have.
func TestOptimizeOffMeshPanics(t *testing.T) {
	tp := topo(4, 4)
	p := mesh.Phase{Flows: []mesh.Flow{{Src: 0, Dst: 5, Bytes: unit.MB, Route: mesh.Path{0, 5}}}}
	defer func() {
		if recover() == nil {
			t.Error("Optimize accepted an off-mesh route step")
		}
	}()
	Optimize(tp, p, Options{})
}

func TestOptimizeEmptyPhase(t *testing.T) {
	tp := topo(2, 2)
	res := Optimize(tp, mesh.Phase{}, Options{})
	if res.InitialMaxLoad != 0 || res.FinalMaxLoad != 0 {
		t.Errorf("empty phase loads = %v/%v", res.InitialMaxLoad, res.FinalMaxLoad)
	}
}

func TestOptimizeAllAggregates(t *testing.T) {
	tp := topo(2, 4)
	phases := []mesh.Phase{
		{Flows: []mesh.Flow{flow(tp, 0, 2, unit.MB, 0), flow(tp, 1, 3, unit.MB, 1)}},
		{Flows: []mesh.Flow{flow(tp, 4, 6, unit.MB, 0), flow(tp, 5, 7, unit.MB, 1)}},
	}
	out, agg := OptimizeAll(tp, phases, Options{})
	if len(out) != 2 {
		t.Fatalf("OptimizeAll returned %d phases", len(out))
	}
	if agg.FinalMaxLoad > agg.InitialMaxLoad {
		t.Error("aggregate got worse")
	}
}

func TestResultString(t *testing.T) {
	r := Result{InitialMaxLoad: 10, FinalMaxLoad: 5, Iterations: 2, MergedFlows: 1, ReroutedFlows: 3}
	s := r.String()
	if !strings.Contains(s, "2.00x") {
		t.Errorf("Result.String() = %q, want improvement factor", s)
	}
	if r.Improvement() != 2 {
		t.Errorf("Improvement = %v", r.Improvement())
	}
}

func TestImprovementZeroFinal(t *testing.T) {
	r := Result{InitialMaxLoad: 0, FinalMaxLoad: 0}
	if r.Improvement() != 1 {
		t.Errorf("degenerate improvement = %v, want 1", r.Improvement())
	}
}

// ringPhases is the merged ring collectives of
// TestOptimizeUniformPhaseScaleInvariant on tp, a 4×8 mesh: every
// phase of the all-reduce, all-gather and reduce-scatter over strided
// logical-order groups (the SMap layouts of DP×TP×SP) and over the
// ring orders of 2×2 blocks (GMap/TEMP rectangles), each merged across
// its groups. The flows of one phase carry equal bytes.
func ringPhases(tp *mesh.Topology) []mesh.Phase {
	var groupings [][][]mesh.DieID
	for _, n := range []int{2, 4, 8} {
		for _, stride := range []int{1, 2, 4, 8} {
			if n*stride > 32 {
				continue
			}
			var groups [][]mesh.DieID
			for g := 0; g < 32/n; g++ {
				order := make([]mesh.DieID, n)
				for k := range order {
					order[k] = mesh.DieID(g/stride*n*stride + g%stride + k*stride)
				}
				groups = append(groups, order)
			}
			groupings = append(groupings, groups)
		}
	}
	var blocks [][]mesh.DieID
	for r := 0; r < 4; r += 2 {
		for col := 0; col < 8; col += 2 {
			d := mesh.DieID(r*8 + col)
			blocks = append(blocks, []mesh.DieID{d, d + 8, d + 9, d + 1})
		}
	}
	groupings = append(groupings, blocks)

	var phases []mesh.Phase
	for _, groups := range groupings {
		var ars, ags, rss [][]mesh.Phase
		for _, order := range groups {
			n := float64(len(order))
			ars = append(ars, collective.RingAllReduce(tp, order, n))
			ags = append(ags, collective.RingAllGather(tp, order, 1))
			rss = append(rss, collective.RingReduceScatter(tp, order, n))
		}
		for _, seqs := range [][][]mesh.Phase{ars, ags, rss} {
			phases = append(phases, collective.Merge(seqs...)...)
		}
	}
	return phases
}

// deadLinks4x8 is the 4×8 mesh with three dead link bundles that
// TestOptimizeUniformPhaseScaleInvariant prices.
func deadLinks4x8() *mesh.Topology {
	c := mesh.Shared(4, 8, hw.TableID2D()).Clone()
	for _, l := range []mesh.Link{{From: 1, To: 2}, {From: 9, To: 10}, {From: 3, To: 11}} {
		c.SetLinkAlive(l, false)
	}
	return c.Intern()
}

// scaled returns a copy of p with every flow carrying b bytes.
func scaled(p mesh.Phase, b float64) mesh.Phase {
	out := clonePhase(p)
	for i := range out.Flows {
		out.Flows[i].Bytes = b
	}
	return out
}

// byteScales are the byte values the scale tests optimize at besides
// unit bytes: values whose repeated sums round, and one past 2^40.
var byteScales = []float64{0.1, 3, 12345.678, math.Ldexp(1, 40) + 1}

// TestOptimizeUniformPhaseScaleInvariant pins the property route plans
// in cost rely on: when every flow of a phase carries the same bytes,
// the optimizer's moves do not depend on that byte value. Ring
// collectives merged across groups make contended phases (ringPhases),
// on a healthy 4×8 mesh and on one with three dead links. Each phase
// is optimized at unit bytes and at scales whose repeated sums round,
// and must make the same moves, end on the same routes, and report max
// loads equal to the scale added the unit run's counts times.
func TestOptimizeUniformPhaseScaleInvariant(t *testing.T) {
	for _, tp := range []*mesh.Topology{mesh.Shared(4, 8, hw.TableID2D()), deadLinks4x8()} {
		for i, p := range ringPhases(tp) {
			ref := Optimize(tp, scaled(p, 1), Options{})
			for _, b := range byteScales {
				r := Optimize(tp, scaled(p, b), Options{})
				if r.Iterations != ref.Iterations || r.MergedFlows != ref.MergedFlows ||
					r.ReroutedFlows != ref.ReroutedFlows ||
					r.InitialMaxLoad != unit.RepAdd(b, int32(ref.InitialMaxLoad)) ||
					r.FinalMaxLoad != unit.RepAdd(b, int32(ref.FinalMaxLoad)) {
					t.Fatalf("phase %d at %v bytes: %v; at unit bytes %v", i, b, r, ref)
				}
				for j := range r.Phase.Flows {
					if !samePath(r.Phase.Flows[j].Route, ref.Phase.Flows[j].Route) {
						t.Fatalf("phase %d at %v bytes: flow %d routed %v, at unit bytes %v",
							i, b, j, r.Phase.Flows[j].Route, ref.Phase.Flows[j].Route)
					}
				}
			}
		}
	}
}

// TestCountModeMatchesWalk pins count mode against the walk, its
// oracle. The walk runs at unit bytes, where every load is a count and
// the load and count weights are equal bit for bit; count mode runs at
// each byte value of the scale grid. Both must make the same moves and
// end on the same flows, count mode's flows carrying its bytes, and
// count mode's max loads must be its bytes added the walk's max loads
// times. The phases are ringPhases on the healthy and the three-dead-
// link 4×8 mesh and on seeded random link masks, and faultedPhases,
// where merges fire. -short takes one random mask and every third ring
// phase.
func TestCountModeMatchesWalk(t *testing.T) {
	type input struct {
		name   string
		tp     *mesh.Topology
		phases []mesh.Phase
	}
	healthy, dead := mesh.Shared(4, 8, hw.TableID2D()), deadLinks4x8()
	ftp, fphases := faultedPhases()
	inputs := []input{
		{"healthy 4x8", healthy, ringPhases(healthy)},
		{"dead-link 4x8", dead, ringPhases(dead)},
		{"faultedPhases", ftp, fphases},
	}
	seeds := 4
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := healthy.Clone()
		for id := 0; id < c.NumLinks(); id++ {
			if l := c.LinkByID(id); l.From < l.To && rng.Float64() < 0.15 {
				c.SetLinkAlive(l, false)
			}
		}
		if !c.Connected() {
			t.Fatalf("mask %d cuts the mesh", seed)
		}
		tp := c.Intern()
		inputs = append(inputs, input{fmt.Sprintf("mask %d", seed), tp, ringPhases(tp)})
	}
	moved := 0
	for _, in := range inputs {
		for i, p := range in.phases {
			if testing.Short() && i%3 != 0 {
				continue
			}
			walk := optimize(in.tp, scaled(p, 1), Options{}, 0)
			moved += walk.MergedFlows + walk.ReroutedFlows
			for _, b := range append([]float64{1}, byteScales...) {
				q := scaled(p, b)
				if countBytes(q) != b {
					t.Fatalf("%s phase %d: Optimize at %v bytes would not run in count mode", in.name, i, b)
				}
				r := optimize(in.tp, q, Options{}, b)
				if r.Iterations != walk.Iterations || r.MergedFlows != walk.MergedFlows ||
					r.ReroutedFlows != walk.ReroutedFlows ||
					r.InitialMaxLoad != unit.RepAdd(b, int32(walk.InitialMaxLoad)) ||
					r.FinalMaxLoad != unit.RepAdd(b, int32(walk.FinalMaxLoad)) ||
					len(r.Phase.Flows) != len(walk.Phase.Flows) {
					t.Fatalf("%s phase %d at %v bytes: count mode %v; walk at unit bytes %v", in.name, i, b, r, walk)
				}
				for j, f := range r.Phase.Flows {
					w := walk.Phase.Flows[j]
					if f.Src != w.Src || f.Dst != w.Dst || f.Payload != w.Payload || f.Bytes != b ||
						!samePath(f.Route, w.Route) {
						t.Fatalf("%s phase %d at %v bytes: flow %d is %+v in count mode, %+v in the walk",
							in.name, i, b, j, f, w)
					}
				}
			}
		}
	}
	if moved == 0 {
		t.Fatal("no phase moved: the walk and count mode compared only identities")
	}
}

// TestCountModeAllocs pins what a rejected candidate costs in count
// mode: on block rings merged across a healthy 4×8 mesh, every link
// carries one flow, so each group flip and each reroute is priced and
// rejected, and Optimize allocates only the phase copy it returns.
func TestCountModeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tp := mesh.Shared(4, 8, hw.TableID2D())
	var rings [][]mesh.Phase
	for r := 0; r < 4; r += 2 {
		for col := 0; col < 8; col += 2 {
			d := mesh.DieID(r*8 + col)
			rings = append(rings, collective.RingAllGather(tp, []mesh.DieID{d, d + 8, d + 9, d + 1}, unit.MB))
		}
	}
	p := collective.Merge(rings...)[0]
	if r := Optimize(tp, p, Options{}); r.Iterations != 1 || r.MergedFlows+r.ReroutedFlows != 0 {
		t.Fatalf("block-ring phase: %v; want one iteration and no move", r)
	}
	if allocs := testing.AllocsPerRun(100, func() { Optimize(tp, p, Options{}) }); allocs != 1 {
		t.Errorf("Optimize allocated %v times per run, want 1 (the phase copy)", allocs)
	}
}

// BenchmarkOptimize optimizes every merged ring phase of ringPhases on
// the three-dead-link 4×8 mesh per op, at 16 MB per flow: "count" is
// Optimize, which runs these uniform phases in count mode, and "walk"
// forces the walk on the same phases.
func BenchmarkOptimize(b *testing.B) {
	tp := deadLinks4x8()
	var phases []mesh.Phase
	for _, p := range ringPhases(tp) {
		phases = append(phases, scaled(p, 16*unit.MB))
	}
	for _, mode := range []struct {
		name  string
		bytes float64
	}{{"count", 16 * unit.MB}, {"walk", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range phases {
					benchSink = optimize(tp, p, Options{}, mode.bytes)
				}
			}
		})
	}
}

var benchSink Result
