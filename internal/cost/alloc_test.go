package cost_test

import (
	"testing"

	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
)

// TestEvaluateSteadyStateAllocs pins the hot path's allocation budget.
// After the first evaluation warms the interned topology's derived
// caches (placement, orchestrations, compiled lowering templates and
// their TCME route plans), an evaluation runs in a handful of
// allocations on every engine and on the replay tier (currently 4 —
// a few template sequence headers — and 8 for TEMP, which prices both
// placement families) — the regression guard leaves headroom but
// catches any return of the per-evaluation map/route churn or of
// per-query TCME runs, which cost thousands.
func TestEvaluateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m := model.GPT3_6_7B()
	w := hw.EvaluationWafer()
	cfg := parallel.Config{DP: 2, TP: 2, SP: 2, TATP: 4}
	replay, err := cost.NewBackend("replay")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		engine cost.Engine
		replay bool
		budget float64
	}{
		{"GMap", cost.GMap, false, 32},
		{"SMap", cost.SMap, false, 32},
		{"TEMP", cost.TCMEEngine, false, 32},
		{"replay GMap", cost.GMap, true, 32},
		{"replay SMap", cost.SMap, true, 32},
		{"replay TEMP", cost.TCMEEngine, true, 32},
	} {
		o := cost.TEMPOptions()
		o.Engine = tc.engine
		price := func() (cost.Breakdown, error) { return cost.Evaluate(m, w, cfg, o) }
		if tc.replay {
			price = func() (cost.Breakdown, error) { return replay.Price(m, w, cfg, o) }
		}
		if _, err := price(); err != nil {
			t.Fatalf("%s warmup: %v", tc.name, err)
		}
		avg := testing.AllocsPerRun(50, func() {
			if _, err := price(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs/op, budget %.0f", tc.name, avg, tc.budget)
		if avg > tc.budget {
			t.Errorf("%s steady-state Evaluate allocates %.1f objects/op, budget %.0f", tc.name, avg, tc.budget)
		}
	}
}
