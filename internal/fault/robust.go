package fault

import (
	"fmt"
	"math/rand"

	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/solver"
)

// RobustModel prices operators as the expected cost over a small
// fault-mask ensemble: a weighted mean of the fault-free model and N
// degraded replay models, one per seeded mask. Selecting it as the
// solver objective trades a small fault-free premium for mappings
// whose streams and collectives still route well when links die —
// graceful degradation as a search objective rather than an
// after-the-fact measurement.
//
// Feasibility (MemoryOK) stays the fault-free model's: a mask changes
// routing, not per-die memory. The degraded replay models price
// routing only, so a mask's core loss does not enter the objective,
// and a core-only mask is the shared healthy mesh. Safe for concurrent
// use when the base model is (the degraded replay models are
// read-only; their lowering states live on each mask's frozen
// topology).
type RobustModel struct {
	base   solver.CostModel
	masks  []solver.CostModel
	weight float64
}

// NewRobustModel builds the ensemble objective: base is the exact
// fault-free model the search would otherwise use, in describes the
// mask distribution, masks is the ensemble size (default 4) and
// weight ∈ [0,1] is the total probability mass on the faulted side
// (default 0.5, split evenly across masks). Masks are drawn
// deterministically from seed via TrialSeed; masks that disconnect
// the fabric are skipped (they penalize every mapping equally and
// carry no ranking signal).
func NewRobustModel(base solver.CostModel, m model.Config, w hw.Wafer,
	in Injection, masks int, seed int64, weight float64) (*RobustModel, error) {
	if weight < 0 || weight > 1 {
		return nil, fmt.Errorf("fault: robust fault weight %v outside [0,1]", weight)
	}
	if weight == 0 {
		weight = 0.5
	}
	if masks <= 0 {
		masks = 4
	}
	if !in.Active() {
		return nil, fmt.Errorf("fault: robust objective needs an active injection (link or core rate > 0)")
	}
	r := &RobustModel{base: base, weight: weight}
	for attempt := 0; attempt < 4*masks && len(r.masks) < masks; attempt++ {
		topo := mesh.FromWafer(w).Clone()
		in.Apply(topo, rand.New(rand.NewSource(TrialSeed(seed, 0, attempt))))
		topo = topo.Intern()
		if !topo.Connected() {
			continue
		}
		r.masks = append(r.masks, DegradedModel(m, w, topo))
	}
	if len(r.masks) == 0 {
		return nil, fmt.Errorf("fault: robust objective: every sampled mask disconnects the fabric (rates too high)")
	}
	return r, nil
}

// Masks returns the ensemble size actually sampled.
func (r *RobustModel) Masks() int { return len(r.masks) }

// Intra implements solver.CostModel.
func (r *RobustModel) Intra(op model.Op, cfg parallel.Config) float64 {
	v := (1 - r.weight) * r.base.Intra(op, cfg)
	var s float64
	for _, mk := range r.masks {
		s += mk.Intra(op, cfg)
	}
	return v + r.weight*s/float64(len(r.masks))
}

// Inter implements solver.CostModel.
func (r *RobustModel) Inter(prev, next model.Op, pc, nc parallel.Config) float64 {
	v := (1 - r.weight) * r.base.Inter(prev, next, pc, nc)
	var s float64
	for _, mk := range r.masks {
		s += mk.Inter(prev, next, pc, nc)
	}
	return v + r.weight*s/float64(len(r.masks))
}

// MemoryOK implements solver.CostModel.
func (r *RobustModel) MemoryOK(cfg parallel.Config) bool { return r.base.MemoryOK(cfg) }

var _ solver.CostModel = (*RobustModel)(nil)
