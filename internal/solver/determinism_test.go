package solver

import (
	"testing"

	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
)

// TestDLSWorkerCountInvariance is the refactor's safety net: for a
// fixed seed the dual-level search must return a bit-identical
// assignment, cost and evaluation count whether the GA population is
// priced serially or fanned out across workers. The RNG only drives
// the serial variation steps, so any divergence means parallel
// evaluation leaked into the search trajectory.
func TestDLSWorkerCountInvariance(t *testing.T) {
	w := hw.EvaluationWafer()
	space := parallel.EnumerateConfigs(w.Dies(), true, 0)
	cases := []struct {
		m      model.Config
		seed   int64
		replay bool
	}{
		{model.GPT3_6_7B(), 7, false},
		{model.GPT3_6_7B(), 42, false},
		{model.Llama3_70B(), 7, false},
		// The replay tier's workers share lowering states and route
		// plans through the topology's derived cache.
		{model.GPT3_6_7B(), 7, true},
	}
	for _, tc := range cases {
		tc := tc
		name := tc.m.Name
		if tc.replay {
			name += " replay"
		}
		t.Run(name, func(t *testing.T) {
			g := model.BlockGraph(tc.m)
			var cm CostModel = &Analytic{W: w, M: tc.m}
			if tc.replay {
				cm = cost.NewOperatorReplay(tc.m, w)
			}
			refAssign, refStats, err := DLS(g, space, cm, DLSOptions{Seed: tc.seed, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				a, s, err := DLS(g, space, cm, DLSOptions{Seed: tc.seed, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if s.FinalCost != refStats.FinalCost {
					t.Errorf("workers=%d: FinalCost %v ≠ serial %v", workers, s.FinalCost, refStats.FinalCost)
				}
				if s.DPCost != refStats.DPCost {
					t.Errorf("workers=%d: DPCost %v ≠ serial %v", workers, s.DPCost, refStats.DPCost)
				}
				if s.Evaluations != refStats.Evaluations {
					t.Errorf("workers=%d: Evaluations %d ≠ serial %d (unique-key count must not depend on scheduling)",
						workers, s.Evaluations, refStats.Evaluations)
				}
				if len(a) != len(refAssign) {
					t.Fatalf("workers=%d: assignment length %d ≠ %d", workers, len(a), len(refAssign))
				}
				for i := range a {
					if a[i] != refAssign[i] {
						t.Fatalf("workers=%d: assignment diverged at op %d: %d ≠ %d",
							workers, i, a[i], refAssign[i])
					}
				}
			}
		})
	}
}
