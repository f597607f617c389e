package cost

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"temp/internal/collective"
	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/stream"
	"temp/internal/tcme"
	"temp/internal/unit"
)

// materializedTime is the path route plans replaced, kept as their
// reference: materialize every template at its query bytes, optimize
// the concatenation with tcme.OptimizeAll and time it with SeqTime.
func materializedTime(t *mesh.Topology, seq []mesh.LoweredSeq) (mesh.PhaseTime, tcme.Result) {
	var phases []mesh.Phase
	for _, ls := range seq {
		phases = append(phases, ls.Tmpl.Materialize(ls.Bytes)...)
	}
	opt, agg := tcme.OptimizeAll(t, phases, tcme.Options{})
	return t.SeqTime(opt), agg
}

// planOracle records the template sequences real evaluations price
// through route plans and checks each against materializedTime.
type planOracle struct {
	t *testing.T
	w hw.Wafer
	// models, cfgs and stride select the evaluations: every model and
	// every stride-th configuration.
	models []model.Config
	cfgs   []parallel.Config
	stride int
	// seen lists each distinct template once, with an evaluator whose
	// state owns it, for the byte-scale grid.
	seen  []mesh.LoweredSeq
	owner map[*mesh.PhaseTemplate]*evaluator
	// queries counts the sequences checked.
	queries int
	// priceOnly evaluates without checking or recording anything: a
	// pass that only builds the templates, states and plans.
	priceOnly bool
}

// newPlanOracle returns an oracle over w for every zoo model and every
// TEMP configuration; -short checks two models and every fifth
// configuration and grid template.
func newPlanOracle(t *testing.T, w hw.Wafer) *planOracle {
	po := &planOracle{t: t, w: w, models: model.Zoo(), cfgs: oracleConfigs(w.Dies()), stride: 1,
		owner: map[*mesh.PhaseTemplate]*evaluator{}}
	if testing.Short() {
		po.models, po.stride = po.models[:2], 5
	}
	return po
}

// check prices seq through evalLowered on a fresh evaluator sharing
// ev's state and options, and compares the total time, LinkBytes and
// tcme.Result with the materialized reference bit for bit.
func (po *planOracle) check(name string, ev *evaluator, seq []mesh.LoweredSeq) {
	po.t.Helper()
	po.queries++
	want, wantAgg := materializedTime(ev.topo, seq)
	got := evaluator{topo: ev.topo, st: ev.st, o: ev.o, replay: ev.replay}
	total := got.evalLowered(append([]mesh.LoweredSeq(nil), seq...))
	if total != want.Total() || got.linkBytes != want.LinkBytes || !reflect.DeepEqual(got.tcmeAgg, wantAgg) {
		po.t.Errorf("%s, bytes %v: plan total %v link bytes %v %v; materialized %v %v %v",
			name, seqBytes(seq), total, got.linkBytes, got.tcmeAgg, want.Total(), want.LinkBytes, wantAgg)
	}
}

func seqBytes(seq []mesh.LoweredSeq) []float64 {
	out := make([]float64, len(seq))
	for i, ls := range seq {
		out[i] = ls.Bytes
	}
	return out
}

// evalOn evaluates (m, cfg, o) on topo's state st, checking every
// sequence its TCME path prices unless priceOnly is set.
func (po *planOracle) evalOn(name string, m model.Config, cfg parallel.Config, o Options,
	topo *mesh.Topology, st *evalState, replay bool) {
	po.t.Helper()
	var seqs [][]mesh.LoweredSeq
	ev := &evaluator{m: m, w: po.w, cfg: cfg, o: o, topo: topo, st: st,
		graph: model.BlockGraph(m), replay: replay}
	if !po.priceOnly {
		ev.planned = func(seq []mesh.LoweredSeq) { seqs = append(seqs, seq) }
	}
	if _, err := ev.run(); err != nil {
		po.t.Fatalf("%s: %v", name, err)
	}
	for _, seq := range seqs {
		po.check(name, ev, seq)
		for _, ls := range seq {
			if po.owner[ls.Tmpl] == nil {
				po.owner[ls.Tmpl] = ev
				po.seen = append(po.seen, ls)
			}
		}
	}
}

// healthy evaluates every selected model and configuration on the
// shared healthy mesh: TEMP in both placement families and the replay
// tier's SMap/GMap states.
func (po *planOracle) healthy() {
	topo := mesh.FromWafer(po.w)
	for _, m := range po.models {
		for i := 0; i < len(po.cfgs); i += po.stride {
			cfg := po.cfgs[i].Normalize()
			for _, linear := range []bool{false, true} {
				if st, err := stateFor(topo, cfg, linear, true); err == nil {
					po.evalOn(fmt.Sprintf("%s/%s/TCME linear=%v", m.Name, cfg, linear), m, cfg, TEMPOptions(), topo, st, false)
				}
			}
			for _, e := range []Engine{SMap, GMap} {
				if st, err := stateFor(topo, cfg, e == SMap, false); err == nil {
					o := TEMPOptions()
					o.Engine = e
					po.evalOn(fmt.Sprintf("%s/%s/replay %s", m.Name, cfg, e), m, cfg, o, topo, st, true)
				}
			}
		}
	}
}

// grid checks a byte-scale grid on every stride-th distinct template
// the evaluations priced, and logs the query counts.
func (po *planOracle) grid() {
	evalQueries := po.queries
	grid := []float64{0, 1e-3, 0.1, 3, 12345.678, math.Ldexp(1, 40) + 1}
	for i := 0; i < len(po.seen); i += po.stride {
		ls := po.seen[i]
		ev := po.owner[ls.Tmpl]
		for _, b := range grid {
			po.check(fmt.Sprintf("grid template %d (%s)", i, ev.cfg), ev, []mesh.LoweredSeq{{Tmpl: ls.Tmpl, Bytes: b}})
		}
	}
	po.t.Logf("%d evaluator sequences, %d distinct templates, %d grid queries",
		evalQueries, len(po.seen), po.queries-evalQueries)
}

// oracleConfigs is every configuration TEMP sweeps on a wafer (the
// power-of-two DP×TP×SP×TATP space, with and without Megatron-style
// SP fusion) plus the FSDP variant of each data-parallel one.
func oracleConfigs(dies int) []parallel.Config {
	var out []parallel.Config
	for _, c := range parallel.EnumerateConfigs(dies, true, 0) {
		out = append(out, c)
		if c.SP > 1 {
			c.MegatronSP = true
			out = append(out, c)
			c.MegatronSP = false
		}
		if c.DP > 1 {
			c.FSDP = true
			out = append(out, c)
		}
	}
	return out
}

// TestRoutePlansMatchMaterialized pins the route-plan path of
// evalLowered against re-optimizing the materialized phases per query.
// On wsc-4x8 it covers every stream and collective template of every
// TEMP configuration in both placement families, the replay tier's
// SMap/GMap states, and one faulted interned mesh lowered fresh from
// its placement — each at the evaluator's own bytes for every zoo
// model — then a byte-scale grid on every distinct template. -short
// checks two models, every fifth configuration and every fifth
// template of the grid.
func TestRoutePlansMatchMaterialized(t *testing.T) {
	w := hw.EvaluationWafer()
	po := newPlanOracle(t, w)
	po.healthy()

	c := mesh.FromWafer(w).Clone()
	for _, l := range []mesh.Link{{From: 1, To: 2}, {From: 9, To: 10}, {From: 3, To: 11}} {
		c.SetLinkAlive(l, false)
	}
	faulted := c.Intern()
	for i := 0; i < len(po.cfgs); i += po.stride {
		cfg := po.cfgs[i].Normalize()
		if place, err := parallel.Place(cfg, faulted); err == nil {
			st := newEvalState(faulted, place, true)
			po.evalOn(fmt.Sprintf("faulted/%s/%s", po.models[0].Name, cfg), po.models[0], cfg, TEMPOptions(), faulted, st, false)
		}
	}
	po.grid()
}

// TestRoutePlanOptimizesEachDistinctPhase pins newRoutePlan's reuse of
// a repeated phase's result on a template whose consecutive phases have
// equal flow counts but different routes and optimize differently: two
// flows colliding on one link (rerouted apart) and two disjoint ones.
// The plan's steps and profile must equal optimizing every phase.
func TestRoutePlanOptimizesEachDistinctPhase(t *testing.T) {
	tp := mesh.Shared(2, 4, hw.TableID2D())
	flow := func(src, dst mesh.DieID, seq int32) mesh.Flow {
		return mesh.Flow{Src: src, Dst: dst, Route: tp.Route(src, dst), Payload: mesh.Payload{Seq: seq}}
	}
	collide := mesh.Phase{Flows: []mesh.Flow{flow(0, 2, 0), flow(1, 3, 1)}}
	apart := mesh.Phase{Flows: []mesh.Flow{flow(0, 1, 0), flow(2, 3, 1)}}
	tmpl := mesh.NewPhaseTemplate([]mesh.Phase{collide, collide, apart, apart, collide})
	plan := newRoutePlan(tp, tmpl)
	var opt []mesh.Phase
	for i, ph := range tmpl.Materialize(1) {
		r := tcme.Optimize(tp, ph, tcme.Options{})
		opt = append(opt, r.Phase)
		want := planStep{iters: int32(r.Iterations), merged: int32(r.MergedFlows), rerouted: int32(r.ReroutedFlows),
			initMax: int32(r.InitialMaxLoad), finalMax: int32(r.FinalMaxLoad)}
		if plan.steps[i] != want {
			t.Errorf("phase %d: plan step %+v, optimized %+v", i, plan.steps[i], want)
		}
	}
	if plan.steps[0] == plan.steps[2] {
		t.Fatal("the two phases optimize alike; the fixture checks nothing")
	}
	if want := tp.CompileProfile(opt); plan.prof == nil || !reflect.DeepEqual(*plan.prof, *want) {
		t.Errorf("plan profile %+v, optimized phases %+v", plan.prof, want)
	}
}

// TestRoutePlansMatchMaterializedOnLinkVariant runs the healthy-mesh
// oracle a second time under another link spec of the same grid (half
// the bandwidth, twice the latency), after the first spec has priced
// everything. Link parameters are timing state: the variant reuses
// the first spec's lowering templates, states and route plans, so it
// compiles no template, and every plan-path price it times with its
// own link must still equal the materialized reference bit for bit.
func TestRoutePlansMatchMaterializedOnLinkVariant(t *testing.T) {
	w := hw.EvaluationWafer()
	first := newPlanOracle(t, w)
	first.priceOnly = true
	first.healthy()
	before := collective.CacheStats().Templates
	v := w
	v.Link.Bandwidth /= 2
	v.Link.Latency *= 2
	if mesh.FromWafer(v) == mesh.FromWafer(w) {
		t.Fatal("the link variant interned to the first spec's topology")
	}
	po := newPlanOracle(t, v)
	po.healthy()
	po.grid()
	if after := collective.CacheStats().Templates; after != before {
		t.Errorf("the link variant compiled %d lowering templates; want 0", after-before)
	}
}

// stepTaggedRing is the ring lowering whose payloads named the step,
// kept as the reference for TestRingPayloadsOptimizeLikeStepTagged:
// every step is routed apart, and flow i of step k (counted through an
// all-reduce's reduce-scatter and all-gather passes) carries datum
// k·n+i. bytes is lowerRingKind's.
func stepTaggedRing(t *mesh.Topology, kind byte, order []mesh.DieID, bytes float64) []mesh.Phase {
	n := len(order)
	chunk, steps := bytes/float64(n), n-1
	switch kind {
	case collAllReduce:
		steps = 2 * (n - 1)
	case collAllGather:
		chunk = bytes
	}
	var phases []mesh.Phase
	for k := 0; k < steps; k++ {
		var ph mesh.Phase
		for i := 0; i < n; i++ {
			src, dst := order[i], order[(i+1)%n]
			if route := t.Route(src, dst); route != nil {
				ph.Flows = append(ph.Flows, mesh.Flow{Src: src, Dst: dst, Bytes: chunk, Route: route,
					Payload: mesh.Payload{Datum: int32(k*n + i)}})
			}
		}
		phases = append(phases, ph)
	}
	return phases
}

// TestRingPayloadsOptimizeLikeStepTagged pins the ring payloads that
// name the datum, not the step, against stepTaggedRing. Merge tags
// every step's flows with their sequence, so within a merged phase the
// step token was the same on all of a sequence's flows: the optimizer's
// merge groups and reversal groups must come out the same. For every
// TEMP state on wsc-4x8 (both placement families), on the healthy mesh
// and on an interned mesh with one dead die and one dead link (unequal
// survivor groups), and for every strategy's orders and ring kind, the
// merged lowerings are optimized phase by phase both ways, at unit
// chunks and at one activation size per zoo model. Flows must agree in
// Src, Dst, Bytes and Route, and tcme.Results in counts and max loads.
// -short checks two models and every fifth configuration.
func TestRingPayloadsOptimizeLikeStepTagged(t *testing.T) {
	w := hw.EvaluationWafer()
	c := mesh.FromWafer(w).Clone()
	c.SetDieAlive(9, false)
	c.SetLinkAlive(mesh.Link{From: 1, To: 2}, false)
	models, stride := model.Zoo(), 1
	if testing.Short() {
		models, stride = models[:2], 5
	}
	space := parallel.EnumerateConfigs(w.Dies(), true, 0)
	checked := 0
	for _, topo := range []*mesh.Topology{mesh.FromWafer(w), c.Intern()} {
		for i := 0; i < len(space); i += stride {
			cfg := space[i].Normalize()
			for _, linear := range []bool{false, true} {
				st, err := stateFor(topo, cfg, linear, true)
				if err != nil {
					continue
				}
				for s, orders := range st.orders {
					if len(orders) == 0 {
						continue
					}
					sizes := map[float64]bool{float64(len(orders[0])): true}
					for _, m := range models {
						sizes[float64(m.Seq*m.Hidden)*unit.FP16.Size()/float64(cfg.Degree())] = true
					}
					for _, kind := range []byte{collAllReduce, collAllGather, collReduceScatter} {
						for bytes := range sizes {
							var ref, got [][]mesh.Phase
							for _, order := range orders {
								ref = append(ref, stepTaggedRing(topo, kind, order, bytes))
								got = append(got, lowerRingKind(topo, kind, order, bytes))
							}
							name := fmt.Sprintf("%s/linear=%v/strategy %d/kind %c/bytes %v", cfg, linear, s, kind, bytes)
							checked += compareOptimized(t, name, topo, collective.Merge(ref...), collective.Merge(got...))
						}
					}
				}
			}
		}
	}
	t.Logf("%d phases", checked)
}

// compareOptimized optimizes every phase of want (the reference
// lowering) and got and reports flows that differ in Src, Dst, Bytes
// or Route, and results that differ in counts or max loads. It returns
// the phases compared.
func compareOptimized(t *testing.T, name string, topo *mesh.Topology, want, got []mesh.Phase) int {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d phases, reference %d", name, len(got), len(want))
	}
	for k := range want {
		wr, gr := tcme.Optimize(topo, want[k], tcme.Options{}), tcme.Optimize(topo, got[k], tcme.Options{})
		wp, gp := wr.Phase, gr.Phase
		wr.Phase, gr.Phase = mesh.Phase{}, mesh.Phase{}
		if !reflect.DeepEqual(gr, wr) {
			t.Fatalf("%s phase %d: %v, reference %v", name, k, gr, wr)
		}
		if len(gp.Flows) != len(wp.Flows) {
			t.Fatalf("%s phase %d: %d optimized flows, reference %d", name, k, len(gp.Flows), len(wp.Flows))
		}
		for i, f := range gp.Flows {
			g := wp.Flows[i]
			if f.Src != g.Src || f.Dst != g.Dst || f.Bytes != g.Bytes || !reflect.DeepEqual(f.Route, g.Route) {
				t.Fatalf("%s phase %d flow %d: %+v, reference %+v", name, k, i, f, g)
			}
		}
	}
	return len(want)
}

// subTTaggedStream is the stream lowering whose payloads named the
// sub-tensor in every schedule, kept as the reference for
// TestStreamPayloadsOptimizeLikeSubTTagged: every round is routed
// apart, each send's datum its sub-tensor.
func subTTaggedStream(t *mesh.Topology, o *stream.Orchestration, subBytes float64) []mesh.Phase {
	var phases []mesh.Phase
	for _, sends := range o.Sched.Sends {
		var ph mesh.Phase
		for _, snd := range sends {
			src, dst := o.Order[snd.From], o.Order[snd.To]
			if route := t.Route(src, dst); route != nil {
				ph.Flows = append(ph.Flows, mesh.Flow{Src: src, Dst: dst, Bytes: subBytes, Route: route,
					Payload: mesh.Payload{Datum: int32(snd.SubT)}})
			}
		}
		phases = append(phases, ph)
	}
	return phases
}

// TestStreamPayloadsOptimizeLikeSubTTagged pins the ring and fallback
// stream payloads that name the sending position, not the sub-tensor,
// against subTTaggedStream. Each position of those schedules forwards
// one distinct sub-tensor per round, so under either name a merged
// round's flows are unique per (sequence, source): no merge group can
// form, and the reversal groups are the sequences either way. For
// every TEMP state on wsc-4x8 (both placement families), on the
// healthy mesh and on an interned mesh with one dead die and one dead
// link (survivor groups that chain or fall back), the merged stream
// lowerings are optimized phase by phase both ways, at unit
// sub-tensors and at one sub-tensor size per zoo model. Flows must
// agree in Src, Dst, Bytes and Route, and tcme.Results in counts and
// max loads. -short checks two models and every fifth configuration.
func TestStreamPayloadsOptimizeLikeSubTTagged(t *testing.T) {
	w := hw.EvaluationWafer()
	c := mesh.FromWafer(w).Clone()
	c.SetDieAlive(9, false)
	c.SetLinkAlive(mesh.Link{From: 1, To: 2}, false)
	models, stride := model.Zoo(), 1
	if testing.Short() {
		models, stride = models[:2], 5
	}
	// Each model's first weighted op sets its sub-tensor size.
	var ops []model.Op
	for _, m := range models {
		for _, op := range model.BlockGraph(m).Ops {
			if op.HasWeight() {
				ops = append(ops, op)
				break
			}
		}
	}
	space := parallel.EnumerateConfigs(w.Dies(), true, 0)
	checked := 0
	modes := map[stream.Mode]int{}
	for _, topo := range []*mesh.Topology{mesh.FromWafer(w), c.Intern()} {
		for i := 0; i < len(space); i += stride {
			cfg := space[i].Normalize()
			for _, linear := range []bool{false, true} {
				st, err := stateFor(topo, cfg, linear, true)
				if err != nil || len(st.orchs) == 0 {
					continue
				}
				for _, o := range st.orchs {
					modes[o.Mode()]++
				}
				sizes := map[float64]bool{1: true}
				for j, m := range models {
					sub, _ := streamSubTensorBytes(ops[j], m, cfg, TEMPOptions())
					sizes[sub] = true
				}
				for sub := range sizes {
					var ref, got [][]mesh.Phase
					for _, o := range st.orchs {
						ref = append(ref, subTTaggedStream(topo, o, sub))
						got = append(got, o.Phases(sub))
					}
					name := fmt.Sprintf("%s/linear=%v/sub-tensor %v", cfg, linear, sub)
					checked += compareOptimized(t, name, topo, collective.Merge(ref...), collective.Merge(got...))
				}
			}
		}
	}
	for _, m := range []stream.Mode{stream.Ring, stream.Bidirectional, stream.Fallback} {
		if modes[m] == 0 {
			t.Errorf("no %v orchestration checked", m)
		}
	}
	t.Logf("%d phases; orchestrations by mode %v", checked, modes)
}

// clonePhases deep-copies phases down to their routes.
func clonePhases(phases []mesh.Phase) []mesh.Phase {
	out := make([]mesh.Phase, len(phases))
	for i, ph := range phases {
		out[i].Flows = append([]mesh.Flow(nil), ph.Flows...)
		for j := range out[i].Flows {
			out[i].Flows[j].Route = append(mesh.Path(nil), ph.Flows[j].Route...)
		}
	}
	return out
}

// samePhases reports whether a and b are equal phase by phase
// (mesh.Phase.Equal).
func samePhases(a, b []mesh.Phase) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestStreamRoundsShareFlows pins the sharing of a ring-schedule
// stream's repeated rounds from lowering to route plan, on the four
// ring orchestrations of wsc-4x8 at DP=4, TATP=8 and on two scattered
// fallback groups whose multi-hop routes collide. Rounds 0..N-2 of
// every orchestration's Phases, of their Merge and of the compiled
// template's materialization share one flow slice, and the shared
// profile equals one compiled from unshared copies. The route plan's
// steps and profile equal tcme.Optimize run on each materialized
// round. Pricing through the plan leaves the template and the lowered
// phases as they were: shared rounds are read-only.
func TestStreamRoundsShareFlows(t *testing.T) {
	topo := mesh.FromWafer(hw.EvaluationWafer())
	place, err := parallel.Place(parallel.Config{DP: 4, TATP: 8}, topo)
	if err != nil {
		t.Fatal(err)
	}
	at := func(r, c int) mesh.DieID { return topo.ID(mesh.Coord{R: r, C: c}) }
	fixtures := []struct {
		name  string
		mode  stream.Mode
		orchs []*stream.Orchestration
	}{
		{"ring", stream.Ring, newEvalState(topo, place, true).orchs},
		{"fallback", stream.Fallback, []*stream.Orchestration{
			stream.Orchestrate(topo, []mesh.DieID{at(0, 0), at(0, 2), at(2, 4), at(3, 7)}, nil),
			stream.Orchestrate(topo, []mesh.DieID{at(0, 1), at(1, 3), at(2, 6), at(3, 5)}, nil),
		}},
	}
	moved := false
	for _, fx := range fixtures {
		name, orchs, n := fx.name, fx.orchs, fx.orchs[0].N()
		shared := func(what string, phases []mesh.Phase) {
			t.Helper()
			if len(phases) != n || len(phases[0].Flows) == 0 || len(phases[n-1].Flows) != 0 {
				t.Fatalf("%s %s: %d rounds, want %d sending rounds and an empty last one", name, what, len(phases), n-1)
			}
			for k := 1; k < n-1; k++ {
				if len(phases[k].Flows) != len(phases[0].Flows) || &phases[k].Flows[0] != &phases[0].Flows[0] {
					t.Errorf("%s %s: round %d does not share round 0's flows", name, what, k)
				}
			}
		}
		var seqs [][]mesh.Phase
		for _, o := range orchs {
			if o.Mode() != fx.mode || o.N() != n {
				t.Fatalf("%s: %v orchestration of %d dies", name, o.Mode(), o.N())
			}
			ph := o.Phases(1)
			shared("phases", ph)
			seqs = append(seqs, ph)
		}
		var lowered [][]mesh.Phase
		for _, seq := range seqs {
			lowered = append(lowered, clonePhases(seq))
		}
		shared("merge", collective.Merge(seqs...))
		tmpl := collective.Compile(seqs...)
		mat := tmpl.Materialize(1)
		shared("materialized template", mat)
		before := clonePhases(mat)
		if got, want := topo.CompileProfile(mat), topo.CompileProfile(before); !reflect.DeepEqual(*got, *want) {
			t.Errorf("%s: shared profile %+v, unshared %+v", name, got, want)
		}

		plan := newRoutePlan(topo, tmpl)
		var opt []mesh.Phase
		planMoved := false
		for i, ph := range mat {
			r := tcme.Optimize(topo, ph, tcme.Options{})
			opt = append(opt, r.Phase)
			planMoved = planMoved || r.MergedFlows+r.ReroutedFlows > 0
			want := planStep{iters: int32(r.Iterations), merged: int32(r.MergedFlows), rerouted: int32(r.ReroutedFlows),
				initMax: int32(r.InitialMaxLoad), finalMax: int32(r.FinalMaxLoad)}
			if plan.steps[i] != want {
				t.Errorf("%s round %d: plan step %+v, optimized %+v", name, i, plan.steps[i], want)
			}
		}
		if !planMoved {
			if plan.prof != nil {
				t.Errorf("%s: no round moved, but the plan keeps a profile", name)
			}
		} else if want := topo.CompileProfile(opt); plan.prof == nil || !reflect.DeepEqual(*plan.prof, *want) {
			t.Errorf("%s: plan profile %+v, optimized rounds %+v", name, plan.prof, want)
		}
		moved = moved || planMoved

		st := &evalState{orchs: orchs}
		ev := evaluator{topo: topo, st: st, o: TEMPOptions()}
		ev.evalLowered([]mesh.LoweredSeq{{Tmpl: st.streamTemplate(), Bytes: 3 * unit.MB}})
		if !samePhases(st.streamTemplate().Materialize(1), before) {
			t.Errorf("%s: pricing changed the template's flows", name)
		}
		for i, seq := range seqs {
			if !samePhases(seq, lowered[i]) {
				t.Errorf("%s: pricing changed orchestration %d's lowered phases", name, i)
			}
		}
	}
	if !moved {
		t.Fatal("no fixture's plan moves a flow; the read-only check prices nothing TCME changed")
	}
}

// materializedIntra is OperatorReplay.Intra's reference on st: the
// TATP orchestrations materialized at the op's sub-tensor bytes and
// the TP orders' ring all-reduces at the all-reduce bytes, each merged
// with collective.Merge, optimized with tcme.OptimizeAll and timed
// with SeqTime.
func materializedIntra(t *mesh.Topology, a *OperatorAnalytic, st *evalState, op model.Op, cfg parallel.Config) float64 {
	replay := func(phases []mesh.Phase) float64 {
		opt, _ := tcme.OptimizeAll(t, phases, tcme.Options{})
		return t.SeqTime(opt).Total()
	}
	var streamT, coll float64
	if cfg.TATP > 1 && op.HasWeight() && len(st.orchs) > 0 {
		_, sub := a.streamedBytes(op, cfg)
		var seqs [][]mesh.Phase
		for _, orch := range st.orchs {
			seqs = append(seqs, orch.Phases(sub))
		}
		streamT = replay(collective.Merge(seqs...)) + float64(cfg.TATP)*streamRoundSync
	}
	if cfg.TP > 1 && op.HasWeight() {
		var seqs [][]mesh.Phase
		for _, order := range st.orders[parallel.TP] {
			seqs = append(seqs, collective.RingAllReduce(t, order, a.arBytes(cfg)))
		}
		merged := collective.Merge(seqs...)
		coll = 0.5 * (replay(merged) + float64(len(merged))*streamRoundSync)
	}
	return unit.MaxF(a.computeTerm(op, cfg), streamT) + coll
}

// TestOperatorReplayMatchesMaterialized pins OperatorReplay.Intra
// against materializedIntra on the evaluator state it prices on (the
// closed-form terms where no placement family fits), bit for bit. It
// covers every zoo model, wsc-4x8 configuration and block op on the
// healthy mesh and on an interned mesh with one dead die and one dead
// link, whose unequal survivor groups take groupCollective's per-group
// path. -short checks two models.
func TestOperatorReplayMatchesMaterialized(t *testing.T) {
	w := hw.EvaluationWafer()
	c := mesh.FromWafer(w).Clone()
	c.SetDieAlive(9, false)
	c.SetLinkAlive(mesh.Link{From: 1, To: 2}, false)
	meshes := []struct {
		name string
		topo *mesh.Topology
	}{{"healthy", mesh.FromWafer(w)}, {"faulted", c.Intern()}}
	models := model.Zoo()
	if testing.Short() {
		models = models[:2]
	}
	space := parallel.EnumerateConfigs(w.Dies(), true, 0)

	terms := 0
	for _, msh := range meshes {
		for _, m := range models {
			r := NewOperatorReplayOn(m, w, msh.topo)
			for _, cfg := range space {
				cfg = cfg.Normalize()
				st, err := stateFor(msh.topo, cfg, false, true)
				if err != nil {
					st, err = stateFor(msh.topo, cfg, true, true)
				}
				for _, op := range model.BlockGraph(m).Ops {
					terms++
					want := r.analytic.Intra(op, cfg)
					if err == nil {
						want = materializedIntra(msh.topo, &r.analytic, st, op, cfg)
					}
					if got := r.Intra(op, cfg); got != want {
						t.Errorf("%s/%s/%s/%s: Intra %v, materialized %v", msh.name, m.Name, cfg, op.Name, got, want)
					}
				}
			}
		}
	}
	t.Logf("%d terms", terms)
}

// freshPlacementPrice is EvaluateOnWith's reference: the engine's
// placement family (PlaceLinear under SMap, Place otherwise) lowered
// into a fresh state and priced on a pooled scratch at the given core
// capacity, replaying only for the replay key.
func freshPlacementPrice(key string, m model.Config, w hw.Wafer, cfg parallel.Config, o Options,
	topo *mesh.Topology, capacity float64) (Breakdown, error) {
	place := parallel.Place
	if o.Engine == SMap {
		place = parallel.PlaceLinear
	}
	p, err := place(cfg, topo)
	if err != nil {
		return Breakdown{}, err
	}
	st := newEvalState(topo, p, o.Engine == TCMEEngine)
	s := batchPool.Get().(*batchScratch)
	defer batchPool.Put(s)
	return s.evaluateState(m, w, cfg.Normalize(), o, topo, st, model.BlockGraph(m), key == "replay", 1/capacity)
}

// TestEvaluateOnWithMatchesFreshPlacement pins EvaluateOnWith, which
// prices on the topology's memoized lowering state, against
// freshPlacementPrice: breakdowns equal under reflect.DeepEqual and
// errors agreeing. It covers GPT-3 6.7B and Llama3 70B on the shared
// healthy mesh at full capacity and on a mesh with die 9 dead and link
// 1→2 dead at capacity 0.75, for every backend key, engine and wsc-4x8
// configuration. The keys run in order on one frozen topology, so
// later tiers price on the states and plans earlier tiers built.
// -short checks one model.
func TestEvaluateOnWithMatchesFreshPlacement(t *testing.T) {
	w := hw.EvaluationWafer()
	c := mesh.FromWafer(w).Clone()
	c.SetDieAlive(9, false)
	c.SetLinkAlive(mesh.Link{From: 1, To: 2}, false)
	meshes := []struct {
		name     string
		topo     *mesh.Topology
		capacity float64
	}{{"healthy", mesh.FromWafer(w), 1}, {"faulted", c.Intern(), 0.75}}
	models := []model.Config{model.GPT3_6_7B(), model.Llama3_70B()}
	if testing.Short() {
		models = models[:1]
	}
	space := parallel.EnumerateConfigs(w.Dies(), true, 0)

	cases := 0
	for _, msh := range meshes {
		for _, key := range []string{"", "replay", "surrogate"} {
			for _, m := range models {
				for _, e := range []Engine{SMap, GMap, TCMEEngine} {
					o := TEMPOptions()
					o.Engine = e
					for _, cfg := range space {
						cases++
						name := fmt.Sprintf("%s/%q/%s/%s/%s", msh.name, key, m.Name, e, cfg)
						got, gotErr := EvaluateOnWith(key, m, w, cfg, o, msh.topo, msh.capacity)
						want, wantErr := freshPlacementPrice(key, m, w, cfg, o, msh.topo, msh.capacity)
						if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Errorf("%s: error %v, fresh placement %v", name, gotErr, wantErr)
						} else if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: breakdown\n%+v\nfresh placement\n%+v", name, got, want)
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}
