package fault

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/solver"
)

// DegradedModel builds the search cost model for a fault-degraded
// topology: the replay operator model pinned to the degraded mesh, so
// candidate configurations are ranked by how their TATP streams and TP
// collectives actually route around dead links (the closed-form
// analytic tier cannot see the fault mask at all). The model interns
// the topology, so every model and exact price on the same topology
// shares its lowering states and route plans.
func DegradedModel(m model.Config, w hw.Wafer, topo *mesh.Topology) solver.CostModel {
	return cost.NewOperatorReplayOn(m, w, topo)
}

// RepairOptions tunes the degradation-aware repair search.
type RepairOptions struct {
	// Backend names the cost tier pricing the exact verification and
	// the fault-free baseline ("" = analytic).
	Backend string
	// Strategy is the registered search strategy re-solving on the
	// degraded fabric (default "hillclimb" — the warm start makes a
	// local search the natural repair move).
	Strategy string
	// Seed drives the strategy's randomness (shorthand for
	// Params["seed"]; the explicit param wins).
	Seed int64
	// Params are extra strategy tuning knobs.
	Params solver.Params
	// Budget bounds the warm (and cold) searches. A zero budget gets
	// a default cap of DefaultRepairEvals evaluations so repair stays
	// an online operation.
	Budget solver.Budget
	// VerifyTop caps how many distinct candidate configurations from
	// the search are exactly re-priced on the degraded topology
	// (default 4). The pre-fault configuration is always compared, so
	// repair is never reported worse than re-price-only.
	VerifyTop int
	// Cold additionally runs the same strategy without the warm start
	// (chain-DP seeding) for the Recovery comparison.
	Cold bool
}

// DefaultRepairEvals caps the repair search when no budget is given.
const DefaultRepairEvals = 4000

// Recovery reports one repair-solving run: what the fault did, what
// re-pricing the old mapping salvages, and what re-solving on the
// degraded fabric recovers — with the evaluation and wall-clock cost
// of recovering it.
type Recovery struct {
	// Report is the localization of the fault mask.
	Report Report `json:"report"`
	// Functional is false when the surviving fabric cannot run any
	// configuration (all norms are then zero).
	Functional bool `json:"functional"`
	// BaselineTokens is the fault-free throughput (tokens/s) the norms
	// below are relative to.
	BaselineTokens float64 `json:"baseline_tokens_per_sec"`
	// RepriceNorm is the pre-fault mapping re-priced on the degraded
	// fabric — what a system without repair solving keeps.
	RepriceNorm float64 `json:"reprice_norm"`
	// RepairedNorm is the best normalized throughput recovered by the
	// warm-started repair search (never below RepriceNorm).
	RepairedNorm float64 `json:"repaired_norm"`
	// RepairedConfig is the configuration achieving RepairedNorm.
	RepairedConfig parallel.Config `json:"repaired_config"`
	// ColdNorm is the cold re-solve's recovered norm (0 unless
	// RepairOptions.Cold).
	ColdNorm float64 `json:"cold_norm,omitempty"`
	// WarmEvals/WarmElapsed are the evals- and wall-clock-to-recover
	// of the warm-started search; Cold* are the cold re-solve's.
	WarmEvals   int           `json:"warm_evals"`
	WarmElapsed time.Duration `json:"warm_elapsed"`
	ColdEvals   int           `json:"cold_evals,omitempty"`
	ColdElapsed time.Duration `json:"cold_elapsed,omitempty"`
	// Strategy names the search strategy that ran.
	Strategy string `json:"strategy"`
}

// Repair re-solves the partition mapping on an already-degraded
// topology (Fig. 20(a) steps: localize, re-partition, re-route — plus
// the re-*solve* the paper's framework-level story implies): the
// search warm-starts from the pre-fault mapping via Budget.Resume on
// the interned degraded mesh, then the top candidate configurations
// are exactly re-priced on it at the surviving core capacity (the
// value Injection.Apply returns, in (0, 1]). The search model prices
// routing only; core loss enters at the exact re-pricing, and a mask
// with no dead die or link repairs on the shared healthy mesh. The
// pre-fault configuration is always one candidate, so the recovery is
// at worst re-price-only.
func Repair(m model.Config, w hw.Wafer, pre parallel.Config, o cost.Options,
	topo *mesh.Topology, capacity float64, ro RepairOptions) (Recovery, error) {
	topo = topo.Intern()
	rep := Localize(topo, capacity)
	base, err := cost.EvaluateWith(ro.Backend, m, w, pre, o)
	if err != nil {
		return Recovery{}, fmt.Errorf("fault: repair baseline: %w", err)
	}
	if base.ThroughputTokens <= 0 {
		return Recovery{}, fmt.Errorf("fault: repair baseline throughput is not positive")
	}
	rec := Recovery{Report: rep, BaselineTokens: base.ThroughputTokens}
	if !rep.Connected {
		return rec, nil
	}
	if !(capacity > 0 && capacity <= 1) {
		return Recovery{}, fmt.Errorf("fault: repair core capacity %v outside (0, 1]", capacity)
	}
	if b, ok := priceDegraded(ro.Backend, m, w, pre, o, topo, capacity); ok {
		rec.RepriceNorm = b.ThroughputTokens / base.ThroughputTokens
	}

	g := model.BlockGraph(m)
	space := parallel.EnumerateConfigs(w.Dies(), true, 0)
	p := solver.Problem{Graph: g, Space: space, Model: DegradedModel(m, w, topo)}
	name := ro.Strategy
	if name == "" {
		name = "hillclimb"
	}
	params := solver.Params{}
	for k, v := range ro.Params {
		params[k] = v
	}
	if _, ok := params["seed"]; !ok {
		params["seed"] = float64(ro.Seed)
	}
	verifyTop := ro.VerifyTop
	if verifyTop <= 0 {
		verifyTop = 4
	}

	solve := func(warm bool) (parallel.Config, float64, solver.Stats, error) {
		st, err := solver.NewStrategy(name, params)
		if err != nil {
			return parallel.Config{}, 0, solver.Stats{}, fmt.Errorf("fault: repair strategy: %w", err)
		}
		b := ro.Budget
		if b.MaxEvals == 0 && b.Deadline == 0 {
			b.MaxEvals = DefaultRepairEvals
		}
		if warm {
			if a, ok := solver.UniformAssignment(space, pre, len(g.Ops)); ok {
				b.Resume = a
			}
		}
		a, stats := st.Solve(context.Background(), p, b)
		cfg, norm := verifyCandidates(ro.Backend, m, w, o, topo, capacity, space, a, verifyTop, base.ThroughputTokens)
		return cfg, norm, stats, nil
	}

	cfg, norm, stats, err := solve(true)
	if err != nil {
		return Recovery{}, err
	}
	rec.Strategy = stats.Strategy
	rec.WarmEvals = stats.Evaluations
	rec.WarmElapsed = stats.Elapsed
	rec.RepairedNorm, rec.RepairedConfig = norm, cfg
	if rec.RepriceNorm >= rec.RepairedNorm {
		rec.RepairedNorm, rec.RepairedConfig = rec.RepriceNorm, pre.Normalize()
	}
	rec.Functional = rec.RepairedNorm > 0

	if ro.Cold {
		_, coldNorm, coldStats, err := solve(false)
		if err != nil {
			return Recovery{}, err
		}
		rec.ColdNorm = coldNorm
		rec.ColdEvals = coldStats.Evaluations
		rec.ColdElapsed = coldStats.Elapsed
	}
	return rec, nil
}

// RepairInjected is Repair on a freshly injected fault mask: the
// injection is applied to the wafer's pristine mesh with a seeded RNG
// (deterministic per seed), then repaired.
func RepairInjected(m model.Config, w hw.Wafer, pre parallel.Config, o cost.Options,
	in Injection, seed int64, ro RepairOptions) (Recovery, error) {
	topo := mesh.FromWafer(w).Clone()
	capacity := in.Apply(topo, rand.New(rand.NewSource(seed)))
	return Repair(m, w, pre, o, topo, capacity, ro)
}

// verifyCandidates exactly re-prices the most-used distinct
// configurations of a search result on the degraded topology and
// returns the best (screen-then-verify: the degraded replay model
// ranks, the backend tier decides).
func verifyCandidates(backend string, m model.Config, w hw.Wafer, o cost.Options,
	topo *mesh.Topology, capacity float64, space []parallel.Config, a solver.Assignment,
	verifyTop int, baseTokens float64) (parallel.Config, float64) {
	counts := map[int]int{}
	for _, c := range a {
		if c >= 0 && c < len(space) {
			counts[c]++
		}
	}
	order := make([]int, 0, len(counts))
	for c := range counts {
		order = append(order, c)
	}
	sort.Slice(order, func(i, j int) bool {
		if counts[order[i]] != counts[order[j]] {
			return counts[order[i]] > counts[order[j]]
		}
		return order[i] < order[j]
	})
	if len(order) > verifyTop {
		order = order[:verifyTop]
	}
	var bestCfg parallel.Config
	var bestNorm float64
	for _, c := range order {
		if b, ok := priceDegraded(backend, m, w, space[c], o, topo, capacity); ok {
			if norm := b.ThroughputTokens / baseTokens; norm > bestNorm {
				bestNorm, bestCfg = norm, space[c]
			}
		}
	}
	return bestCfg, bestNorm
}
