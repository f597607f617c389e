package spec

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"temp/internal/solver"
)

// BudgetSpec bounds a solver-stage search: distinct cost-model
// evaluations, wall-clock time, and the checkpoint interval for
// best-so-far snapshots. The zero spec is an unlimited budget.
type BudgetSpec struct {
	// Evals caps distinct cost-model evaluations (0 = unlimited).
	Evals int `json:"evals,omitempty"`
	// Time is a Go duration ("30s", "500ms") capping wall-clock
	// search time.
	Time string `json:"time,omitempty"`
	// Checkpoint records a best-so-far snapshot every N
	// iterations/generations (0 = none).
	Checkpoint int `json:"checkpoint,omitempty"`
}

// Budget converts to the solver representation.
func (s BudgetSpec) Budget() (solver.Budget, error) {
	if s.Evals < 0 {
		return solver.Budget{}, fmt.Errorf("spec: budget evals %d is negative", s.Evals)
	}
	if s.Checkpoint < 0 {
		return solver.Budget{}, fmt.Errorf("spec: budget checkpoint %d is negative", s.Checkpoint)
	}
	b := solver.Budget{MaxEvals: s.Evals, Checkpoint: s.Checkpoint}
	if s.Time != "" {
		d, err := time.ParseDuration(s.Time)
		if err != nil {
			return solver.Budget{}, fmt.Errorf("spec: budget time: %w", err)
		}
		if d <= 0 {
			return solver.Budget{}, fmt.Errorf("spec: budget time %q is not positive", s.Time)
		}
		b.Deadline = d
	}
	return b, nil
}

// SolverSpec selects a partition-mapping search strategy by
// registered name plus tuning params — the optimizer axis of a
// scenario, serializable like every other spec. The zero spec is the
// paper's GA with default options.
type SolverSpec struct {
	// Strategy is a registered strategy name (ga | anneal |
	// hillclimb | dp | portfolio); empty defaults to ga.
	Strategy string `json:"strategy,omitempty"`
	// Seed drives the strategy's randomness; shorthand for
	// params["seed"] (the explicit param wins).
	Seed int64 `json:"seed,omitempty"`
	// Params are strategy tuning knobs by name ("population",
	// "iterations", ...); unknown knobs are rejected.
	Params map[string]float64 `json:"params,omitempty"`
	// Budget optionally bounds the search.
	Budget *BudgetSpec `json:"budget,omitempty"`
	// Robust selects the robust objective: the search minimizes
	// expected cost over a seeded fault-mask ensemble instead of the
	// fault-free cost alone.
	Robust *RobustSpec `json:"robust,omitempty"`
}

// StrategyName returns the defaulted strategy name.
func (s SolverSpec) StrategyName() string {
	if s.Strategy == "" {
		return "ga"
	}
	return strings.ToLower(strings.TrimSpace(s.Strategy))
}

// Validate reports structural problems with the spec.
func (s SolverSpec) Validate() error {
	_, err := s.Build()
	return err
}

// SolverStage is a resolved SolverSpec: the built strategy, its
// budget, the name it resolved under, and the seed that drove it
// (reused by the surrogate screening tier when no cost stage pins
// one).
type SolverStage struct {
	Name     string
	Strategy solver.Strategy
	Budget   solver.Budget
	Seed     int64
	// Robust carries the validated robust-objective block; the
	// scenario runner builds the ensemble model from it (it needs the
	// resolved model/wafer pair).
	Robust *RobustSpec
}

// Build resolves the spec against the solver's strategy registry.
func (s SolverSpec) Build() (*SolverStage, error) {
	params := solver.Params{}
	for k, v := range s.Params {
		params[k] = v
	}
	if s.Seed != 0 {
		if _, ok := params["seed"]; !ok {
			params["seed"] = float64(s.Seed)
		}
	}
	st, err := solver.NewStrategy(s.StrategyName(), params)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	stage := &SolverStage{Name: s.StrategyName(), Strategy: st, Seed: int64(params["seed"])}
	if s.Budget != nil {
		if stage.Budget, err = s.Budget.Budget(); err != nil {
			return nil, err
		}
	}
	if s.Robust != nil {
		if err := s.Robust.Validate(); err != nil {
			return nil, err
		}
		stage.Robust = s.Robust
	}
	return stage, nil
}

// ParseBudget parses a CLI -budget flag into the budget block it
// writes: an integer evaluation cap ("20000"), a Go duration deadline
// ("30s"), or both comma-separated ("20000,30s"). Empty means
// unlimited. Zero or negative caps and deadlines are rejected, as is
// naming either key twice ("10,20" or "5s,30s") — a duplicate almost
// always means a typo'd mixed budget, and silently keeping the last
// value would bound the search differently than the user asked.
func ParseBudget(s string) (BudgetSpec, error) {
	var b BudgetSpec
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if n, err := strconv.Atoi(tok); err == nil {
			if n <= 0 {
				return BudgetSpec{}, fmt.Errorf("spec: budget evals %d is not positive", n)
			}
			if b.Evals != 0 {
				return BudgetSpec{}, fmt.Errorf("spec: budget %q sets the eval cap twice (%d and %d)", s, b.Evals, n)
			}
			b.Evals = n
			continue
		}
		d, err := time.ParseDuration(tok)
		if err != nil {
			return BudgetSpec{}, fmt.Errorf("spec: budget %q is neither an eval count nor a duration", tok)
		}
		if d <= 0 {
			return BudgetSpec{}, fmt.Errorf("spec: budget deadline %q is not positive", tok)
		}
		if b.Time != "" {
			return BudgetSpec{}, fmt.Errorf("spec: budget %q sets the deadline twice (%s and %s)", s, b.Time, tok)
		}
		b.Time = tok
	}
	return b, nil
}
