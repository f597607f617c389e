package sim_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"temp/internal/cli"
	"temp/internal/sim"
	"temp/internal/spec"
)

// stagedSpecs loads the mixed batch and scenarios carrying every
// optional stage the way the CLIs load them, with the flags in edit
// written into every spec. The staged scenarios are loaded under
// -repair and -fault-campaign as well: a declared solver stage, a
// fault stage with an attached repair block and a declared campaign,
// and loader-attached default-grid campaigns.
func stagedSpecs(t *testing.T, edit cli.Config) []spec.ScenarioSpec {
	t.Helper()
	batch := map[string]string{}
	for i, s := range sim.BatchSpecs(t) {
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		batch[fmt.Sprintf("%d-%s.json", i, s.Name)] = string(raw)
	}
	staged := map[string]string{
		"solved.json": `{"model":"gpt3-6.7b","wafer":"wsc-4x8",
		  "solver":{"strategy":"hillclimb","seed":3,"budget":{"evals":400}}}`,
		"faulted.json": `{"model":"gpt3-6.7b","wafer":"wsc-4x8","config":{"dp":4,"tatp":8},
		  "fault":{"link_rate":0.15,"trials":2,"seed":3,
		           "campaign":{"link_rates":[0,0.2],"core_rates":[0],"trials":2,"seed":5}}}`,
		"pinned.json": `{"model":"llama2-7b","wafer":"wsc-4x8","config":{"dp":4,"tatp":8}}`,
	}
	c := edit
	c.Scenarios = writeSpecs(t, batch)
	out, err := c.Specs()
	if err != nil {
		t.Fatal(err)
	}
	c.Scenarios, c.Repair, c.FaultCampaign = writeSpecs(t, staged), true, filepath.Join(t.TempDir(), "campaigns.out")
	more, err := c.Specs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range more {
		if s.Fault == nil || s.Fault.Campaign == nil {
			t.Fatalf("loader left %s without a campaign stage", s.Name)
		}
	}
	return append(out, more...)
}

// writeSpecs writes raw scenario JSON files into a fresh directory.
func writeSpecs(t *testing.T, raw map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range raw {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
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
// repair, campaign — both as declared and with -strategy, -budget,
// -seed and -backend written into every spec, so the override stages
// ride inside each task's spec.
func TestRunScenarioSpecsOnMatchesDirect(t *testing.T) {
	ctx := context.Background()
	for _, edit := range []cli.Config{
		{},
		{Strategy: "anneal", Budget: "300", Seed: 11, Backend: "replay"},
	} {
		specs := stagedSpecs(t, edit)
		scs := make([]spec.Scenario, len(specs))
		for i, ss := range specs {
			sc, err := ss.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			if edit.Strategy != "" && (sc.Solver == nil || sc.Solver.Name != "anneal" || sc.Cost == nil || sc.Cost.Key != "replay") {
				t.Fatalf("%s: flags not written into the spec: %+v %+v", ss.Name, sc.Solver, sc.Cost)
			}
			scs[i] = sc
		}
		direct := sim.RunScenarios(ctx, scs)
		dist := sim.RunScenarioSpecs(ctx, nil, specs)
		if len(dist) != len(direct) {
			t.Fatalf("result count %d, want %d", len(dist), len(direct))
		}
		for i := range direct {
			if direct[i].Err != nil || dist[i].Err != nil {
				t.Fatalf("%+v: scenario %s errored: direct %v, distributed %v",
					edit, specs[i].Name, direct[i].Err, dist[i].Err)
			}
			if !reflect.DeepEqual(canonical(direct[i]), canonical(dist[i])) {
				t.Errorf("%+v: scenario %s differs through the task codec:\n got %+v\nwant %+v",
					edit, specs[i].Name, dist[i], direct[i])
			}
		}
	}
}
