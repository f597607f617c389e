// Package fault implements the systematic fault-tolerance mechanism
// of §VIII-F (Fig. 20): random link and core fault injection, fault
// localization, adaptive tensor re-partitioning (capacity-weighted
// work re-balancing), and communication re-routing around dead
// hardware — all at the framework level rather than relying on
// hardware redundancy.
package fault

import (
	"fmt"
	"math/rand"

	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
)

// Injection describes a fault scenario.
type Injection struct {
	// LinkRate is the fraction of D2D link bundles that fail.
	LinkRate float64
	// CoreRate is the per-core failure probability inside each die;
	// a die's surviving capacity is its fraction of healthy cores.
	CoreRate float64
	// CoresPerDie sizes the per-die core array (Fig. 3: 8×8).
	CoresPerDie int
}

// Active reports whether the injection perturbs anything; inactive
// injections let scenario runners skip the fault stage entirely.
func (in Injection) Active() bool {
	return in.LinkRate > 0 || in.CoreRate > 0
}

// Apply injects faults into a topology using the given source of
// randomness and returns the surviving core capacity: the mean core
// fraction of the dies left alive, summed in ascending die order (1
// with no core faults, 0 only when no die survives). Link bundles
// (both directions) fail together, and a die whose cores all fail is
// killed. Core loss itself stays off the topology, so a mask that
// kills no die or link interns to the shared healthy mesh.
//
// Bundles are visited over the dense canonical link index: IDs ascend
// in (From, To) order, so keeping only l.From < l.To walks each bundle
// exactly once — the canonical order gives dedup for free, with no
// per-trial map — and a seed always draws the same mask.
func (in Injection) Apply(t *mesh.Topology, rng *rand.Rand) (capacity float64) {
	if in.LinkRate > 0 {
		for id := 0; id < t.NumLinks(); id++ {
			l := t.LinkByID(id)
			if l.From > l.To {
				continue
			}
			if rng.Float64() < in.LinkRate {
				t.SetLinkAlive(l, false)
			}
		}
	}
	if in.CoreRate <= 0 {
		return 1
	}
	cores := in.CoresPerDie
	if cores <= 0 {
		cores = 64
	}
	alive := 0
	for d := 0; d < t.Dies(); d++ {
		dead := 0
		for c := 0; c < cores; c++ {
			if rng.Float64() < in.CoreRate {
				dead++
			}
		}
		frac := 1 - float64(dead)/float64(cores)
		if frac <= 0 {
			t.SetDieAlive(mesh.DieID(d), false)
		}
		if t.DieAlive(mesh.DieID(d)) {
			capacity += frac
			alive++
		}
	}
	if alive > 0 {
		capacity /= float64(alive)
	}
	return capacity
}

// Report describes the localization step: what failed and whether
// the surviving fabric can still run the configuration.
type Report struct {
	DeadLinks int
	DeadDies  int
	// MeanCapacity is the average surviving core fraction of the
	// alive dies (the capacity Injection.Apply returned).
	MeanCapacity float64
	// Connected reports whether the alive dies form one component.
	Connected bool
}

// Localize scans a topology for faults (step 1 of Fig. 20(a)) and
// records the core capacity the injection reported: the topology
// holds routing state only. The dense link index spans the pristine
// mesh regardless of the fault mask, so dead bundles are counted with
// a plain walk over canonical IDs — no dedup map and no pristine-mesh
// rebuild.
func Localize(t *mesh.Topology, capacity float64) Report {
	r := Report{Connected: t.Connected(), MeanCapacity: capacity}
	for d := 0; d < t.Dies(); d++ {
		if !t.DieAlive(mesh.DieID(d)) {
			r.DeadDies++
		}
	}
	for id := 0; id < t.NumLinks(); id++ {
		l := t.LinkByID(id)
		if l.From > l.To {
			continue
		}
		if !t.LinkAlive(l) {
			r.DeadLinks++
		}
	}
	return r
}

// Outcome is the result of one faulted evaluation.
type Outcome struct {
	Report     Report
	Breakdown  cost.Breakdown
	Functional bool
}

// Evaluate runs the cost model on a faulted topology with TEMP's
// three-step tolerance: localization, adaptive re-partitioning (work
// re-balanced to the surviving core capacity), and re-routing (the
// mesh router avoids dead links). A disconnected fabric, or one whose
// placement can no longer route, is reported non-functional.
func Evaluate(m model.Config, w hw.Wafer, cfg parallel.Config, o cost.Options, in Injection, rng *rand.Rand) Outcome {
	return EvaluateWith("", m, w, cfg, o, in, rng)
}

// EvaluateWith is Evaluate at a named cost-backend fidelity: the
// degraded topology is priced through cost.EvaluateOnWith (tiers
// without a contention replay, like the surrogate, price
// analytically).
func EvaluateWith(backend string, m model.Config, w hw.Wafer, cfg parallel.Config, o cost.Options, in Injection, rng *rand.Rand) Outcome {
	// FromWafer returns the interned immutable mesh; injection needs a
	// private mutable copy. Once the fault mask is final the copy is
	// interned: one with no dead die or link (core faults only)
	// resolves to the shared mesh and its memoized lowering states, a
	// faulted one is frozen in place, so the evaluator's lowering caches
	// live on this trial's topology for exactly as long as the trial
	// holds it.
	topo := mesh.FromWafer(w).Clone()
	capacity := in.Apply(topo, rng)
	topo = topo.Intern()
	rep := Localize(topo, capacity)
	// Report.Connected is t.Connected(): one explicit functional check.
	if !rep.Connected {
		return Outcome{Report: rep}
	}
	b, ok := priceDegraded(backend, m, w, cfg, o, topo, capacity)
	if !ok {
		return Outcome{Report: rep}
	}
	return Outcome{Report: rep, Breakdown: b, Functional: true}
}

// priceDegraded prices cfg on an already-degraded (and connected)
// topology at the backend tier, with TEMP's adaptive re-partitioning
// spreading the work over the surviving core capacity;
// cost.EvaluateOnWith picks the placement family and shares the
// topology's lowering states with every other price on it. ok is
// false when the configuration cannot be placed or priced on the
// surviving fabric — the shared functional check behind Evaluate, the
// repair solver, the campaign harness and the worst-case mask search.
func priceDegraded(backend string, m model.Config, w hw.Wafer, cfg parallel.Config, o cost.Options,
	topo *mesh.Topology, capacity float64) (cost.Breakdown, bool) {
	b, err := cost.EvaluateOnWith(backend, m, w, cfg, o, topo, capacity)
	if err != nil {
		return cost.Breakdown{}, false
	}
	return b, true
}

// NormalizedThroughput runs trials at a fault rate and returns mean
// throughput relative to the fault-free baseline — the y-axis of
// Fig. 20(b)/(c). Non-functional trials contribute zero. A
// non-positive trial count is a validation error (returned as 0 plus
// the error, never NaN).
func NormalizedThroughput(m model.Config, w hw.Wafer, cfg parallel.Config, o cost.Options,
	in Injection, trials int, seed int64) (float64, error) {
	return NormalizedThroughputWith("", m, w, cfg, o, in, trials, seed)
}

// NormalizedThroughputWith is NormalizedThroughput at a named
// cost-backend fidelity; baseline and faulted trials price through
// the same tier, so the normalization stays consistent.
func NormalizedThroughputWith(backend string, m model.Config, w hw.Wafer, cfg parallel.Config, o cost.Options,
	in Injection, trials int, seed int64) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("fault: trial count %d is not positive", trials)
	}
	base, err := cost.EvaluateWith(backend, m, w, cfg, o)
	if err != nil {
		return 0, err
	}
	if base.ThroughputTokens <= 0 {
		return 0, nil
	}
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	for i := 0; i < trials; i++ {
		out := EvaluateWith(backend, m, w, cfg, o, in, rng)
		if out.Functional {
			sum += out.Breakdown.ThroughputTokens / base.ThroughputTokens
		}
	}
	return sum / float64(trials), nil
}
