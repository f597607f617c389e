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
// their TCME route plans) and the pooled pricing scratch, a scalar
// evaluation is a batch of one on that scratch and allocates nothing
// on every engine and on the replay tier — the budget of 4 leaves
// headroom for an occasional pool refill but catches any return of
// per-evaluation buffers, of the map/route churn or of per-query TCME
// runs, which cost thousands.
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
		{"GMap", cost.GMap, false, 4},
		{"SMap", cost.SMap, false, 4},
		{"TEMP", cost.TCMEEngine, false, 4},
		{"replay GMap", cost.GMap, true, 4},
		{"replay SMap", cost.SMap, true, 4},
		{"replay TEMP", cost.TCMEEngine, true, 4},
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
