package tcme

import (
	"strings"
	"testing"

	"temp/internal/collective"
	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/unit"
)

func topo(r, c int) *mesh.Topology { return mesh.New(r, c, hw.TableID2D()) }

func flow(t *mesh.Topology, src, dst mesh.DieID, bytes float64, payload string) mesh.Flow {
	return mesh.Flow{Src: src, Dst: dst, Bytes: bytes, Route: t.RouteXY(src, dst), Payload: payload}
}

// TestRerouteResolvesFig5Contention reproduces the Fig. 5(b) setup:
// two flows (0→2 and 1→3 in the top row) collide on link 1→2 under XY
// routing; the optimizer must find a detour and halve the bottleneck.
func TestRerouteResolvesFig5Contention(t *testing.T) {
	tp := topo(2, 4)
	d0, d1 := tp.ID(mesh.Coord{R: 0, C: 0}), tp.ID(mesh.Coord{R: 0, C: 1})
	d2, d3 := tp.ID(mesh.Coord{R: 0, C: 2}), tp.ID(mesh.Coord{R: 0, C: 3})
	p := mesh.Phase{Flows: []mesh.Flow{
		flow(tp, d0, d2, 64*unit.MB, "data1"),
		flow(tp, d1, d3, 64*unit.MB, "data2"),
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
		flow(tp, 0, 1, 32*unit.MB, "w0"),
		flow(tp, 0, 2, 32*unit.MB, "w0"),
		flow(tp, 0, 3, 32*unit.MB, "w0"),
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
		flow(tp, 0, 2, 32*unit.MB, "w0"),
		flow(tp, 0, 3, 16*unit.MB, "w0"), // same tag, different size ⇒ not the same datum
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
			flow(tp, 0, 2, 64*unit.MB, "a"),
			flow(tp, 1, 3, 64*unit.MB, "b"),
			flow(tp, 0, 6, 64*unit.MB, "rep"),
			flow(tp, 0, 2, 64*unit.MB, "rep"),
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
		collective.P2PChain(tp, []mesh.DieID{2, 0, 8, 10}, 16*unit.MB, "tatp"),
		collective.P2PChain(tp, []mesh.DieID{3, 1, 9, 11}, 16*unit.MB, "tatp2"),
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
	for i, c := range tatpChains {
		seqs = append(seqs, collective.P2PChain(tp, c, bytes, "tatp"+string(rune('a'+i))))
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

// TestOptimizeOnFaultedMesh runs the optimizer on phases whose routes
// are RouteWeighted detours around dead links: merges and reroutes must
// stay on alive mesh links and never raise the bottleneck.
func TestOptimizeOnFaultedMesh(t *testing.T) {
	c := mesh.Shared(4, 4, hw.TableID2D()).Clone()
	for _, l := range []mesh.Link{{From: 0, To: 1}, {From: 5, To: 9}, {From: 10, To: 11}} {
		c.SetLinkAlive(l, false)
	}
	tp := c.Intern()
	seqs := collective.Merge(
		collective.RingAllGather(tp, []mesh.DieID{0, 1, 5, 4}, 16*unit.MB),
		collective.RingAllReduce(tp, []mesh.DieID{8, 9, 10, 11, 15, 14, 13, 12}, 16*unit.MB),
		collective.P2PChain(tp, []mesh.DieID{2, 0, 8, 10}, 16*unit.MB, "tatp"),
		collective.Broadcast(tp, 3, []mesh.DieID{1, 9, 11}, 16*unit.MB, "w"),
	)
	// A Fig. 5(b)-style collision plus a replicated payload whose routes
	// detour around the dead 0↔1 link, so reroute and merge both fire.
	routed := func(src, dst mesh.DieID, payload string) mesh.Flow {
		return mesh.Flow{Src: src, Dst: dst, Bytes: 16 * unit.MB, Route: tp.Route(src, dst), Payload: payload}
	}
	seqs = append(seqs, mesh.Phase{Flows: []mesh.Flow{
		routed(12, 14, "a"), routed(13, 15, "b"), routed(1, 0, "rep"), routed(1, 4, "rep"),
	}})
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

// TestOptimizeOffMeshPanics pins the adjacency contract: a route step
// between non-adjacent dies has no link ID, and the optimizer panics
// rather than pricing a link the mesh does not have.
func TestOptimizeOffMeshPanics(t *testing.T) {
	tp := topo(4, 4)
	p := mesh.Phase{Flows: []mesh.Flow{{Src: 0, Dst: 5, Bytes: unit.MB, Route: mesh.Path{0, 5}, Payload: "diag"}}}
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
		{Flows: []mesh.Flow{flow(tp, 0, 2, unit.MB, "a"), flow(tp, 1, 3, unit.MB, "b")}},
		{Flows: []mesh.Flow{flow(tp, 4, 6, unit.MB, "c"), flow(tp, 5, 7, unit.MB, "d")}},
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
