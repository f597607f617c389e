package cost

import (
	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/unit"
)

// replayBackend is the contention-fidelity tier: instead of the
// closed-form collective and stream terms of the analytic operator
// model, every communication phase is lowered onto the wafer mesh and
// link-load replayed through the TCME optimizer.
//
//   - Price runs the full evaluator with the replay flag set, so even
//     SMap/GMap scenarios get their phases contention-replayed — a
//     "what if only communication scheduling improved" study the
//     monolithic entry point could not express.
//   - Operator returns OperatorReplay, which prices each candidate
//     configuration's TATP streams and TP ring collectives on the TEMP
//     step evaluator's lowering state and TCME route plans.
type replayBackend struct{}

// Name implements Backend.
func (*replayBackend) Name() string { return "replay" }

// Price implements Backend.
func (*replayBackend) Price(m model.Config, w hw.Wafer, cfg parallel.Config, o Options) (Breakdown, error) {
	return evaluate(m, w, cfg, o, true)
}

// Operator implements Backend.
func (*replayBackend) Operator(m model.Config, w hw.Wafer) (OperatorModel, error) {
	return NewOperatorReplay(m, w), nil
}

// OperatorReplay is the replay backend's per-operator model: the
// compute and memory terms match the analytic tier (they are not
// communication), but the TATP stream and TP collective terms are
// priced on the lowering the TEMP step evaluator uses — the
// configuration's placement with its alive-filtered ring, snake or
// nearest-neighbor group orders — through the TCME route plans,
// capturing the inter-group contention and multi-hop wrap costs the
// closed-form ring formulas average away.
//
// The lowering states and their plans are memoized on the interned
// topology, so the model itself is read-only and safe for concurrent
// use.
type OperatorReplay struct {
	analytic OperatorAnalytic
	topo     *mesh.Topology
}

// NewOperatorReplay builds the replay operator model for one
// model/wafer pair on the wafer's shared healthy topology, whose
// lowering states the step evaluator populates too.
func NewOperatorReplay(m model.Config, w hw.Wafer) *OperatorReplay {
	return NewOperatorReplayOn(m, w, mesh.FromWafer(w))
}

// NewOperatorReplayOn is NewOperatorReplay pinned to an explicit
// topology — typically a fault-degraded mesh, so searches can rank
// candidate configurations by how well their streams and collectives
// route around dead links (the repair solver's degraded cost model).
// The topology is interned (a faulted one is frozen in place), so
// every model and EvaluateOnWith price on the same topology shares one
// lowering state per configuration.
func NewOperatorReplayOn(m model.Config, w hw.Wafer, topo *mesh.Topology) *OperatorReplay {
	return &OperatorReplay{analytic: OperatorAnalytic{W: w, M: m}, topo: topo.Intern()}
}

// Intra implements OperatorModel.
func (r *OperatorReplay) Intra(op model.Op, cfg parallel.Config) float64 {
	cfg = cfg.Normalize()
	a := &r.analytic
	st, err := stateFor(r.topo, cfg, false, true)
	if err != nil {
		if st, err = stateFor(r.topo, cfg, true, true); err != nil {
			// Unplaceable on this grid: fall back to the closed-form terms
			// so the search still prices the candidate deterministically.
			return a.Intra(op, cfg)
		}
	}

	// Compute is priced exactly as the analytic tier — the fidelity
	// axis is communication.
	comp := a.computeTerm(op, cfg)
	ev := evaluator{topo: r.topo, st: st, o: Options{Engine: TCMEEngine}}

	var streamT float64
	if cfg.TATP > 1 && op.HasWeight() && len(st.orchs) > 0 {
		_, sub := a.streamedBytes(op, cfg)
		seq := [1]mesh.LoweredSeq{{Tmpl: st.streamTemplate(), Bytes: sub}}
		streamT = ev.evalLowered(seq[:]) + float64(cfg.TATP)*streamRoundSync
	}

	var coll float64
	if cfg.TP > 1 && op.HasWeight() {
		// One partial-sum all-reduce per two weighted ops, as in the
		// analytic tier.
		coll = 0.5 * ev.groupCollective(parallel.TP, collAllReduce, a.arBytes(cfg))
	}
	return unit.MaxF(comp, streamT) + coll
}

// Inter implements OperatorModel: the structural resharding bytes are
// exact; the transfer is replayed as a routed single-hop exchange
// (adding the hop latency the closed form drops).
func (r *OperatorReplay) Inter(prev, next model.Op, pc, nc parallel.Config) float64 {
	bytes := r.analytic.ReshardBytes(prev, pc, nc)
	if bytes <= 0 {
		return 0
	}
	return bytes/r.analytic.W.Link.EffectiveBandwidth(bytes) + r.analytic.W.Link.Latency
}

// MemoryOK implements OperatorModel (memory is closed-form at every
// tier).
func (r *OperatorReplay) MemoryOK(cfg parallel.Config) bool {
	return r.analytic.MemoryOK(cfg)
}

var _ OperatorModel = (*OperatorReplay)(nil)
