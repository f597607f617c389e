package sim_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"temp/internal/cli"
	"temp/internal/sim"
	"temp/internal/spec"
)

// stagedSpecs extends the mixed batch with scenarios loaded the way
// the CLIs load them under -repair and -fault-campaign, so the batch
// carries every optional stage: a declared solver stage, a fault stage
// with an attached repair block and a declared campaign, and
// loader-attached default-grid campaigns.
func stagedSpecs(t *testing.T) []spec.ScenarioSpec {
	t.Helper()
	dir := t.TempDir()
	for name, raw := range map[string]string{
		"solved.json": `{"model":"gpt3-6.7b","wafer":"wsc-4x8",
		  "solver":{"strategy":"hillclimb","seed":3,"budget":{"evals":400}}}`,
		"faulted.json": `{"model":"gpt3-6.7b","wafer":"wsc-4x8","config":{"dp":4,"tatp":8},
		  "fault":{"link_rate":0.15,"trials":2,"seed":3,
		           "campaign":{"link_rates":[0,0.2],"core_rates":[0],"trials":2,"seed":5}}}`,
		"pinned.json": `{"model":"llama2-7b","wafer":"wsc-4x8","config":{"dp":4,"tatp":8}}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c := cli.Config{Scenarios: dir, Repair: true, FaultCampaign: filepath.Join(dir, "campaigns.out")}
	staged, err := c.Specs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range staged {
		if s.Fault == nil || s.Fault.Campaign == nil {
			t.Fatalf("loader left %s without a campaign stage", s.Name)
		}
	}
	return append(sim.BatchSpecs(t), staged...)
}

// canonical zeroes the wall-clock fields of a result, as
// serve.CanonicalResults does for served responses.
func canonical(r sim.ScenarioResult) sim.ScenarioResult {
	if r.Solver != nil {
		s := *r.Solver
		s.Elapsed = 0
		r.Solver = &s
	}
	if r.Recovery != nil {
		rec := *r.Recovery
		rec.WarmElapsed, rec.ColdElapsed = 0, 0
		r.Recovery = &rec
	}
	return r
}

// TestRunScenarioSpecsOnMatchesDirect: a scenario batch routed through
// the sim.scenario task codec (JSON spec in, gob wire out) on the
// in-process path reproduces the direct run over resolved scenarios
// bit-for-bit (modulo wall-clock) for every stage — solver, fault,
// repair, campaign — with and without strategy/budget/backend
// overrides.
func TestRunScenarioSpecsOnMatchesDirect(t *testing.T) {
	ctx := context.Background()
	specs := stagedSpecs(t)
	for _, ov := range []sim.Overrides{
		{},
		{Strategy: "anneal", Budget: "300", Seed: 11, Workers: 2, Backend: "replay"},
	} {
		scs := make([]spec.Scenario, len(specs))
		for i, ss := range specs {
			sc, err := ov.Scenario(ss)
			if err != nil {
				t.Fatal(err)
			}
			scs[i] = sc
		}
		direct := sim.RunScenarios(ctx, scs)
		dist := sim.RunScenarioSpecs(ctx, nil, specs, ov)
		if len(dist) != len(direct) {
			t.Fatalf("result count %d, want %d", len(dist), len(direct))
		}
		for i := range direct {
			if direct[i].Err != nil || dist[i].Err != nil {
				t.Fatalf("%+v: scenario %s errored: direct %v, distributed %v",
					ov, specs[i].Name, direct[i].Err, dist[i].Err)
			}
			if !reflect.DeepEqual(canonical(direct[i]), canonical(dist[i])) {
				t.Errorf("%+v: scenario %s differs through the task codec:\n got %+v\nwant %+v",
					ov, specs[i].Name, dist[i], direct[i])
			}
		}
	}
}

// TestOverridesStages: empty overrides build no stages; a backend
// override builds only the cost stage.
func TestOverridesStages(t *testing.T) {
	sol, cst, err := sim.Overrides{}.Stages()
	if err != nil || sol != nil || cst != nil {
		t.Fatalf("empty overrides: %v %v %v", sol, cst, err)
	}
	sol, cst, err = sim.Overrides{Backend: "analytic"}.Stages()
	if err != nil || sol != nil || cst == nil {
		t.Fatalf("backend override: %v %v %v", sol, cst, err)
	}
	if _, _, err := (sim.Overrides{Strategy: "no-such-strategy"}).Stages(); err == nil {
		t.Fatal("bogus strategy should not build")
	}
}
