package cost

import (
	"temp/internal/mesh"
	"temp/internal/tcme"
	"temp/internal/unit"
)

// routePlan is TCME's optimization of one lowering template, run once
// at unit bytes and kept as the compiled link profile of the optimized
// phases plus each phase's move statistics as integers.
//
// Every flow of a template carries the same byte value b per query, so
// every link load the optimizer compares is b added n times, and
// repeated addition is strictly increasing in n: the bottleneck argmax
// and its tie-break, the potential's count at its 1e-9 threshold and
// potential.less all decide on traversal counts alone, merges always
// see equal bytes, and reroute weighs links by count. tcme's count
// mode prices such a phase on counts directly. Optimizing at b
// therefore makes the unit-byte plan's moves, its optimized flows all
// still carry b, and its max loads are b added the plan's counts
// times. TestRoutePlansMatchMaterialized pins plans against optimizing
// the materialized phases at the query's bytes.
type routePlan struct {
	prof  *mesh.LinkProfile
	steps []planStep
}

// planStep is one phase's tcme.Result at unit bytes: the move counts,
// and the initial and final max-link traversal counts.
type planStep struct {
	iters, merged, rerouted int32
	initMax, finalMax       int32
}

// planKey identifies a route plan within its evalState, whose
// templates are all lowered on the state's one topology.
type planKey struct {
	tmpl *mesh.PhaseTemplate
	opts tcme.Options
}

// newRoutePlan optimizes tmpl's phases at unit bytes, each run of
// equal phases once (tcme.OptimizeEach). Only the profile and the
// counts survive; the optimized flows are dropped. When no phase moved
// (most plans on contention-free rings), the optimized phases are the
// template's own and the plan keeps no profile.
func newRoutePlan(t *mesh.Topology, tmpl *mesh.PhaseTemplate, opts tcme.Options) *routePlan {
	phases := tmpl.Materialize(1)
	p := &routePlan{steps: make([]planStep, len(phases))}
	moved := false
	tcme.OptimizeEach(t, phases, opts, func(i int, r tcme.Result) {
		phases[i] = r.Phase
		moved = moved || r.MergedFlows+r.ReroutedFlows > 0
		p.steps[i] = planStep{
			iters: int32(r.Iterations), merged: int32(r.MergedFlows), rerouted: int32(r.ReroutedFlows),
			initMax: int32(r.InitialMaxLoad), finalMax: int32(r.FinalMaxLoad),
		}
	})
	if moved {
		p.prof = t.CompileProfile(phases)
	}
	return p
}

// planFor returns the state's route plan of tmpl under opts, building
// it on first use. Plans live on the state beside the templates they
// optimize, so they die with them.
func (st *evalState) planFor(t *mesh.Topology, tmpl *mesh.PhaseTemplate, opts tcme.Options) *routePlan {
	st.mu.Lock()
	defer st.mu.Unlock()
	k := planKey{tmpl: tmpl, opts: opts}
	if p, ok := st.plans[k]; ok {
		return p
	}
	if st.plans == nil {
		st.plans = map[planKey]*routePlan{}
	}
	p := newRoutePlan(t, tmpl, opts)
	st.plans[k] = p
	return p
}

// price adds the plan's per-phase results at bytes to agg, in
// OptimizeAll's phase order, and returns the profile to time in place
// of the template's own (nil: the template's own). Lowerings carry no
// negative bytes; at zero bytes no link carries load, so Optimize
// moves nothing and reports zeros: the plan is the identity with zero
// statistics.
func (p *routePlan) price(bytes float64, agg *tcme.Result) *mesh.LinkProfile {
	if bytes <= 0 {
		return nil
	}
	for _, s := range p.steps {
		agg.Add(tcme.Result{
			InitialMaxLoad: unit.RepAdd(bytes, s.initMax),
			FinalMaxLoad:   unit.RepAdd(bytes, s.finalMax),
			Iterations:     int(s.iters),
			MergedFlows:    int(s.merged),
			ReroutedFlows:  int(s.rerouted),
		})
	}
	return p.prof
}
