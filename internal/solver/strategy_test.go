package solver

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
)

// goldenEntry is one pre-refactor DLS run captured in
// testdata/ga_golden.json before the strategy framework landed.
type goldenEntry struct {
	Model       string  `json:"model"`
	Seed        int64   `json:"seed"`
	Assignment  []int   `json:"assignment"`
	DPCost      float64 `json:"dp_cost"`
	FinalCost   float64 `json:"final_cost"`
	Evaluations int     `json:"evaluations"`
	Generations int     `json:"generations"`
}

func loadGolden(t *testing.T) []goldenEntry {
	t.Helper()
	buf, err := os.ReadFile("testdata/ga_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenEntry
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("empty golden file")
	}
	return out
}

// TestGAMatchesPreRefactorDLS is the refactor's ground truth: the GA
// strategy (and the DLS wrapper on top of it) must reproduce the
// pre-framework solver's assignment, costs and evaluation count
// bit-identically for every registered paper model and seed. The
// golden file was generated by the pre-refactor code.
func TestGAMatchesPreRefactorDLS(t *testing.T) {
	w := hw.EvaluationWafer()
	space := parallel.EnumerateConfigs(w.Dies(), true, 0)
	models := map[string]model.Config{}
	for _, m := range model.Zoo() {
		models[m.Name] = m
	}
	for _, g := range loadGolden(t) {
		g := g
		t.Run(g.Model, func(t *testing.T) {
			m, ok := models[g.Model]
			if !ok {
				t.Fatalf("golden model %q no longer registered", g.Model)
			}
			graph := model.BlockGraph(m)
			cm := &Analytic{W: w, M: m}
			ga := &GA{Seed: g.Seed}
			a, s := ga.Solve(context.Background(),
				Problem{Graph: graph, Space: space, Model: cm}, Budget{})
			if s.FinalCost != g.FinalCost {
				t.Errorf("seed %d: FinalCost %v ≠ golden %v", g.Seed, s.FinalCost, g.FinalCost)
			}
			if s.DPCost != g.DPCost {
				t.Errorf("seed %d: DPCost %v ≠ golden %v", g.Seed, s.DPCost, g.DPCost)
			}
			if s.Evaluations != g.Evaluations {
				t.Errorf("seed %d: Evaluations %d ≠ golden %d", g.Seed, s.Evaluations, g.Evaluations)
			}
			if s.Generations != g.Generations {
				t.Errorf("seed %d: Generations %d ≠ golden %d", g.Seed, s.Generations, g.Generations)
			}
			if len(a) != len(g.Assignment) {
				t.Fatalf("seed %d: assignment length %d ≠ golden %d", g.Seed, len(a), len(g.Assignment))
			}
			for i := range a {
				if a[i] != g.Assignment[i] {
					t.Fatalf("seed %d: assignment diverged at op %d: %d ≠ golden %d",
						g.Seed, i, a[i], g.Assignment[i])
				}
			}
			// The DLS wrapper must agree with the strategy it wraps.
			da, ds := mustDLS(t, graph, space, cm, DLSOptions{Seed: g.Seed})
			if ds.FinalCost != s.FinalCost {
				t.Errorf("DLS wrapper cost %v ≠ GA strategy %v", ds.FinalCost, s.FinalCost)
			}
			for i := range da {
				if da[i] != a[i] {
					t.Fatalf("DLS wrapper assignment diverged at op %d", i)
				}
			}
		})
	}
}

func strategyProblem(t *testing.T) Problem {
	t.Helper()
	m := model.GPT3_6_7B()
	w := hw.EvaluationWafer()
	return Problem{
		Graph: model.BlockGraph(m),
		Space: parallel.EnumerateConfigs(w.Dies(), true, 0),
		Model: &Analytic{W: w, M: m},
	}
}

// TestRegisteredStrategiesSolve runs every registered strategy on the
// Table-II reference problem: each must return a full feasible-length
// assignment, never worse than its own seed cost, deterministically.
func TestRegisteredStrategiesSolve(t *testing.T) {
	p := strategyProblem(t)
	if names := StrategyNames(); len(names) < 5 {
		t.Fatalf("expected ≥5 registered strategies, have %v", names)
	}
	for _, name := range StrategyNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			st, err := NewStrategy(name, Params{"seed": 7})
			if err != nil {
				t.Fatal(err)
			}
			if st.Name() != name {
				t.Errorf("Name() = %q, registered as %q", st.Name(), name)
			}
			a1, s1 := st.Solve(context.Background(), p, Budget{})
			if len(a1) != len(p.Graph.Ops) {
				t.Fatalf("assignment covers %d ops, want %d", len(a1), len(p.Graph.Ops))
			}
			if s1.FinalCost <= 0 || s1.FinalCost >= oomPenalty {
				t.Errorf("degenerate final cost %v", s1.FinalCost)
			}
			if s1.DPCost > 0 && s1.FinalCost > s1.DPCost*(1+1e-9) {
				t.Errorf("strategy worsened its seed: %v → %v", s1.DPCost, s1.FinalCost)
			}
			// Determinism per seed.
			st2, err := NewStrategy(name, Params{"seed": 7})
			if err != nil {
				t.Fatal(err)
			}
			a2, s2 := st2.Solve(context.Background(), p, Budget{})
			if s2.FinalCost != s1.FinalCost {
				t.Errorf("same seed, different costs: %v vs %v", s1.FinalCost, s2.FinalCost)
			}
			for i := range a1 {
				if a1[i] != a2[i] {
					t.Fatalf("same seed, different assignments at op %d", i)
				}
			}
		})
	}
}

// TestPortfolioNeverWorseThanGA is the acceptance criterion: under
// the same budget and seed, the portfolio's cost is ≤ the GA
// baseline's (its first racer is that very GA).
func TestPortfolioNeverWorseThanGA(t *testing.T) {
	p := strategyProblem(t)
	_, ga := (&GA{Seed: 7}).Solve(context.Background(), p, Budget{})
	a, pf := (&Portfolio{Seed: 7}).Solve(context.Background(), p, Budget{})
	if pf.FinalCost > ga.FinalCost {
		t.Errorf("portfolio cost %v worse than GA baseline %v", pf.FinalCost, ga.FinalCost)
	}
	if len(a) != len(p.Graph.Ops) {
		t.Fatalf("portfolio assignment covers %d ops", len(a))
	}
	if pf.Winner == "" || len(pf.Sub) != 3 {
		t.Errorf("portfolio stats incomplete: winner %q, %d subs", pf.Winner, len(pf.Sub))
	}
	if got := pf.Sub[0].FinalCost; got != ga.FinalCost {
		t.Errorf("portfolio's GA racer cost %v ≠ standalone GA %v", got, ga.FinalCost)
	}
}

// TestPortfolioWorkerInvariance races the portfolio at several worker
// counts; each racer owns its evaluator and RNG, so the result must
// not depend on scheduling.
func TestPortfolioWorkerInvariance(t *testing.T) {
	p := strategyProblem(t)
	ref, refStats := (&Portfolio{Seed: 7}).Solve(context.Background(), p, Budget{Workers: 1})
	for _, workers := range []int{2, 8} {
		a, s := (&Portfolio{Seed: 7}).Solve(context.Background(), p, Budget{Workers: workers})
		if s.FinalCost != refStats.FinalCost || s.Winner != refStats.Winner {
			t.Errorf("workers=%d: cost/winner %v/%s ≠ serial %v/%s",
				workers, s.FinalCost, s.Winner, refStats.FinalCost, refStats.Winner)
		}
		for i := range a {
			if a[i] != ref[i] {
				t.Fatalf("workers=%d: assignment diverged at op %d", workers, i)
			}
		}
	}
}

// TestBudgetStopsSearch bounds the search by evaluations and by
// deadline; both must cut it short without breaking the result.
func TestBudgetStopsSearch(t *testing.T) {
	p := strategyProblem(t)
	_, full := (&GA{Seed: 7}).Solve(context.Background(), p, Budget{})
	_, capped := (&GA{Seed: 7}).Solve(context.Background(), p, Budget{MaxEvals: full.Evaluations / 2})
	if capped.Generations >= full.Generations {
		t.Errorf("eval budget did not shorten the GA: %d vs %d generations",
			capped.Generations, full.Generations)
	}
	_, timed := (&Anneal{Seed: 7}).Solve(context.Background(), p, Budget{Deadline: time.Nanosecond})
	if timed.Iterations != 0 {
		t.Errorf("nanosecond deadline still ran %d iterations", timed.Iterations)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, cancelled := (&HillClimb{Seed: 7}).Solve(ctx, p, Budget{})
	if cancelled.Iterations != 0 {
		t.Errorf("cancelled context still ran %d iterations", cancelled.Iterations)
	}
}

// TestCheckpointResume snapshots a search and warm-starts another
// from the snapshot: the resumed search must start at (or below) the
// snapshot's cost and report it as its seed cost.
func TestCheckpointResume(t *testing.T) {
	p := strategyProblem(t)
	_, s := (&Anneal{Seed: 7}).Solve(context.Background(), p, Budget{Checkpoint: 500})
	if len(s.Checkpoints) == 0 {
		t.Fatal("no checkpoints recorded")
	}
	for i, cp := range s.Checkpoints {
		if cp.Iteration == 0 || len(cp.Assignment) != len(p.Graph.Ops) || cp.Cost <= 0 {
			t.Fatalf("degenerate checkpoint %d: %+v", i, cp)
		}
		if i > 0 && cp.Cost > s.Checkpoints[i-1].Cost {
			t.Errorf("best-so-far cost rose between checkpoints %d and %d", i-1, i)
		}
	}
	last := s.Checkpoints[len(s.Checkpoints)-1]
	_, resumed := (&HillClimb{Seed: 99}).Solve(context.Background(), p, Budget{Resume: last.Assignment})
	if resumed.DPCost != last.Cost {
		t.Errorf("resumed seed cost %v ≠ checkpoint cost %v", resumed.DPCost, last.Cost)
	}
	if resumed.FinalCost > last.Cost {
		t.Errorf("resume worsened the checkpoint: %v → %v", last.Cost, resumed.FinalCost)
	}
}

// TestNewStrategyErrors covers registry misuse: unknown names and
// unknown or invalid params must error, not silently clamp.
func TestNewStrategyErrors(t *testing.T) {
	cases := []struct {
		name   string
		params Params
	}{
		{"no-such-strategy", nil},
		{"ga", Params{"popsicle": 3}},
		{"ga", Params{"population": -4}},
		{"ga", Params{"mutation": 1.5}},
		{"anneal", Params{"iterations": -1}},
		{"anneal", Params{"cool": 2}},
		{"hillclimb", Params{"restarts": -2}},
		{"hillclimb", Params{"perturb": -0.1}},
		{"portfolio", Params{"generations": 10}},
		{"dp", Params{"population": 8}},
	}
	for _, tc := range cases {
		if _, err := NewStrategy(tc.name, tc.params); err == nil {
			t.Errorf("NewStrategy(%q, %v) accepted", tc.name, tc.params)
		}
	}
	if _, err := NewStrategy("GA", Params{"seed": 1}); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
}
