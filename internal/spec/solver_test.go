package spec

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSolverSpecRoundTrip serializes a SolverSpec through JSON and
// back: the decoded spec must build the same strategy and budget.
func TestSolverSpecRoundTrip(t *testing.T) {
	in := SolverSpec{
		Strategy: "anneal",
		Seed:     11,
		Params:   map[string]float64{"iterations": 500},
		Budget:   &BudgetSpec{Evals: 20000, Time: "30s", Checkpoint: 100},
	}
	buf, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out SolverSpec
	if err := strictUnmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	st, err := out.Build()
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "anneal" || st.Strategy.Name() != "anneal" {
		t.Errorf("round-tripped strategy %q/%q, want anneal", st.Name, st.Strategy.Name())
	}
	if st.Budget.MaxEvals != 20000 || st.Budget.Deadline != 30*time.Second || st.Budget.Checkpoint != 100 {
		t.Errorf("round-tripped budget %+v", st.Budget)
	}
}

// TestSolverSpecDefaultsToGA checks the zero spec is the paper's GA.
func TestSolverSpecDefaultsToGA(t *testing.T) {
	st, err := SolverSpec{}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "ga" || st.Strategy.Name() != "ga" {
		t.Errorf("zero spec built %q/%q, want ga", st.Name, st.Strategy.Name())
	}
}

// TestSolverSpecErrors rejects unknown strategies, unknown params and
// malformed budgets.
func TestSolverSpecErrors(t *testing.T) {
	cases := []SolverSpec{
		{Strategy: "no-such-strategy"},
		{Strategy: "ga", Params: map[string]float64{"popsicle": 1}},
		{Strategy: "ga", Params: map[string]float64{"population": -4}},
		{Budget: &BudgetSpec{Evals: -1}},
		{Budget: &BudgetSpec{Time: "not-a-duration"}},
		{Budget: &BudgetSpec{Time: "-5s"}},
		{Budget: &BudgetSpec{Checkpoint: -1}},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d (%+v): accepted", i, s)
		}
	}
}

// TestScenarioSpecSolverStage resolves a scenario carrying a solver
// stage and checks the stage comes back built.
func TestScenarioSpecSolverStage(t *testing.T) {
	ss := ScenarioSpec{
		Name:   "with-solver",
		Model:  ModelRef{Name: "gpt3-6.7b"},
		Wafer:  WaferRef{Name: "wsc-4x8"},
		Solver: &SolverSpec{Strategy: "portfolio", Seed: 3},
	}
	sc, err := ss.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Solver == nil || sc.Solver.Strategy.Name() != "portfolio" {
		t.Fatalf("solver stage not resolved: %+v", sc.Solver)
	}
	// JSON round-trip through ParseScenario keeps the stage.
	buf, err := json.Marshal(ss)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := ParseScenario(buf)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Solver == nil || rt.Solver.Strategy != "portfolio" || rt.Solver.Seed != 3 {
		t.Fatalf("round-tripped scenario lost the solver stage: %+v", rt.Solver)
	}
	// A bad stage fails resolution.
	ss.Solver = &SolverSpec{Strategy: "bogus"}
	if _, err := ss.Resolve(); err == nil {
		t.Error("bogus solver strategy accepted")
	}
}

// TestParseBudget covers the CLI budget grammar, including the
// rejection of zero/negative deadlines and duplicate keys; every
// accepted flag writes a budget block that builds.
func TestParseBudget(t *testing.T) {
	cases := []struct {
		in       string
		evals    int
		deadline time.Duration
		wantErr  string // substring; "" means success
	}{
		{in: "", evals: 0, deadline: 0},
		{in: ",", evals: 0, deadline: 0},
		{in: "20000", evals: 20000},
		{in: "30s", deadline: 30 * time.Second},
		{in: "20000,30s", evals: 20000, deadline: 30 * time.Second},
		{in: "30s,20000", evals: 20000, deadline: 30 * time.Second},
		{in: " 500ms , 7 ", evals: 7, deadline: 500 * time.Millisecond},
		{in: "abc", wantErr: "neither an eval count nor a duration"},
		{in: "-5", wantErr: "not positive"},
		{in: "0", wantErr: "not positive"},
		{in: "0s", wantErr: "deadline \"0s\" is not positive"},
		{in: "-2s", wantErr: "deadline \"-2s\" is not positive"},
		{in: "20000,-1s", wantErr: "not positive"},
		{in: "10,20", wantErr: "sets the eval cap twice"},
		{in: "5s,30s", wantErr: "sets the deadline twice"},
		{in: "100,1s,200", wantErr: "sets the eval cap twice"},
	}
	for _, tc := range cases {
		bs, err := ParseBudget(tc.in)
		if tc.wantErr != "" {
			if err == nil {
				t.Errorf("ParseBudget(%q) accepted, want error containing %q", tc.in, tc.wantErr)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseBudget(%q) error %q, want substring %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseBudget(%q): %v", tc.in, err)
			continue
		}
		b, err := bs.Budget()
		if err != nil {
			t.Errorf("ParseBudget(%q) = %+v does not build: %v", tc.in, bs, err)
			continue
		}
		if b.MaxEvals != tc.evals || b.Deadline != tc.deadline {
			t.Errorf("ParseBudget(%q) = %+v, want evals %d deadline %s", tc.in, b, tc.evals, tc.deadline)
		}
	}
}
