package sim

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"

	"temp/internal/baselines"
	"temp/internal/distrib"
	"temp/internal/fault"
	"temp/internal/spec"
)

// Scenario-spec batches: each spec is one "sim.scenario" task, run on
// a fabric's workers or in-process through the same handler. A task's
// payload is the spec's canonical JSON (specs carry custom marshalers
// gob cannot see through), so every stage a worker runs, CLI overrides
// included, is written in the spec; results travel as gob of a wire
// mirror whose error is a string.

// scenarioWire is ScenarioResult with the error flattened to text.
type scenarioWire struct {
	Name          string
	Result        baselines.Result
	FaultNormTput float64
	Faulted       bool
	Solver        *SolverOutcome
	Recovery      *fault.Recovery
	Campaign      *fault.CampaignResult
	ErrMsg        string
}

func init() {
	distrib.RegisterKind("sim.scenario", runScenarioPayload)
}

func runScenarioPayload(ctx context.Context, payload []byte) ([]byte, error) {
	ss, err := spec.ParseScenario(payload)
	if err != nil {
		return nil, err
	}
	res := ScenarioResult{Name: ss.Name}
	if sc, err := ss.Resolve(); err != nil {
		res.Err = err
	} else {
		res = runOne(ctx, sc)
	}
	w := scenarioWire{
		Name: res.Name, Result: res.Result,
		FaultNormTput: res.FaultNormTput, Faulted: res.Faulted,
		Solver: res.Solver, Recovery: res.Recovery, Campaign: res.Campaign,
	}
	if res.Err != nil {
		w.ErrMsg = res.Err.Error()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("sim: encode scenario result: %w", err)
	}
	return buf.Bytes(), nil
}

// RunScenarioSpecs resolves and runs serialized scenario specs, one
// task per spec: sharded across f's workers, or in-process through the
// same handler when f is nil or degraded. Results merge back into spec
// order and are bit-identical at any worker count. A spec that fails
// to resolve contributes an error result rather than aborting the
// batch; scenarios not finished when ctx ends report ctx.Err(), and
// workers receive best-effort shard cancellation.
func RunScenarioSpecs(ctx context.Context, f *distrib.Fabric, specs []spec.ScenarioSpec) []ScenarioResult {
	payloads := make([][]byte, len(specs))
	out := make([]ScenarioResult, len(specs))
	encErr := make([]error, len(specs))
	for i, s := range specs {
		var err error
		if payloads[i], err = json.Marshal(s); err != nil {
			encErr[i] = err
			payloads[i] = []byte("{}")
		}
	}
	raw, errs := f.RunCtx(ctx, "sim.scenario", payloads)
	for i := range specs {
		switch {
		case encErr[i] != nil:
			out[i] = ScenarioResult{Name: specs[i].Name, Err: encErr[i]}
		case errs[i] != nil:
			out[i] = ScenarioResult{Name: specs[i].Name, Err: errs[i]}
		default:
			var w scenarioWire
			if err := gob.NewDecoder(bytes.NewReader(raw[i])).Decode(&w); err != nil {
				out[i] = ScenarioResult{Name: specs[i].Name, Err: err}
				continue
			}
			out[i] = ScenarioResult{
				Name: w.Name, Result: w.Result,
				FaultNormTput: w.FaultNormTput, Faulted: w.Faulted,
				Solver: w.Solver, Recovery: w.Recovery, Campaign: w.Campaign,
			}
			if w.ErrMsg != "" {
				out[i].Err = errors.New(w.ErrMsg)
			}
		}
	}
	return out
}
