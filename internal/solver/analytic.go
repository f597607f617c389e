// Package solver implements the Dual-Level Wafer Solver (§VII): a
// wafer-customized per-operator cost model, the dual-level search
// algorithm (residual-cut graph partitioning + recursive chain
// dynamic programming + genetic refinement, Fig. 12(b)), and an
// exhaustive joint-search baseline standing in for the ILP solvers
// the paper compares search time against (§VIII-H).
package solver

import (
	"strings"

	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
)

// CostModel prices operators under candidate strategies. It is
// structurally identical to cost.OperatorModel, so every registered
// cost backend's per-operator fast path (analytic, replay, surrogate)
// plugs in directly via cost.NewBackend(...).Operator(m, w).
//
// Implementations must be safe for concurrent use: strategies price
// whole GA populations across Budget.Workers goroutines (GOMAXPROCS
// by default), so Intra/Inter/MemoryOK may be called from several
// goroutines at once. Stateless or read-only models qualify as-is:
// Analytic is a read-only struct, the replay tier prices on lowering
// states memoized on its interned topology, and trained surrogates
// serve predictions from frozen weights. A model that mutates shared
// state must either synchronize internally or be run with Workers: 1.
type CostModel interface {
	// Intra returns T_intra(op) of Eq. (2): compute overlapped with
	// streaming plus exposed collectives, under the strategy.
	Intra(op model.Op, cfg parallel.Config) float64
	// Inter returns T_inter(op1, op2) of Eq. (3): the resharding
	// P2P cost between consecutive operators under their strategies.
	Inter(prev, next model.Op, pc, nc parallel.Config) float64
	// MemoryOK reports whether the strategy fits per-die memory for
	// the whole model (a global, non-chain constraint the genetic
	// level enforces).
	MemoryOK(cfg parallel.Config) bool
}

// Analytic is the closed-form wafer cost model of §VII-A, now owned
// by the cost package as the analytic backend's operator fast path.
// The alias preserves the historical solver surface (&solver.Analytic
// {W: w, M: m}) bit-identically.
type Analytic = cost.OperatorAnalytic

var _ CostModel = (*Analytic)(nil)

// BackendModel resolves a registered cost backend's per-operator
// model by key ("analytic", "replay", "surrogate@seed=7") — the
// bridge the CLIs and scenario runner use to search at a chosen
// fidelity tier.
func BackendModel(key string, m model.Config, w hw.Wafer) (CostModel, error) {
	be, err := cost.NewBackend(key)
	if err != nil {
		return nil, err
	}
	return be.Operator(m, w)
}

// SearchModels resolves the (exact, screen) cost-model pair for one
// search — the single rule the scenario runner and the CLIs share:
//
//   - exact comes from the backend key ("" = analytic);
//   - screen is the surrogate tier, attached only for the strategies
//     that use one ("multifid", and "portfolio" which races a
//     multifid when a screen is present) and nil otherwise;
//   - a surrogate backend key combined with a screening strategy
//     supplies the screen (keeping its seed) and degrades the exact
//     tier to analytic — a screened search must never verify its
//     winner on the surrogate it screened with.
func SearchModels(strategy, backendKey string, m model.Config, w hw.Wafer, screenSeed int64) (exact, screen CostModel, err error) {
	screens := strategy == "multifid" || strategy == "portfolio"
	exactKey := backendKey
	screenKey := cost.BackendKey("surrogate", screenSeed)
	canon := cost.CanonicalBackendKey(backendKey)
	if screens && (canon == "surrogate" || strings.HasPrefix(canon, "surrogate@")) {
		exactKey = ""
		screenKey = canon
	}
	if exact, err = BackendModel(exactKey, m, w); err != nil {
		return nil, nil, err
	}
	if !screens {
		return exact, nil, nil
	}
	if screen, err = BackendModel(screenKey, m, w); err != nil {
		return nil, nil, err
	}
	return exact, screen, nil
}
