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
// a fabric's workers or in-process through the same handler. Specs
// travel as their canonical JSON (they carry custom marshalers gob
// cannot see through); results travel as gob of a wire mirror whose
// error is a string.

// Overrides is the serializable form of the CLI's solver/cost override
// flags (-strategy, -budget, -seed, -workers, -backend), so a worker
// rebuilds the exact stages the coordinator would have used.
type Overrides struct {
	Strategy string `json:"strategy,omitempty"`
	Budget   string `json:"budget,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Workers  int    `json:"workers,omitempty"`
	Backend  string `json:"backend,omitempty"`
}

// Stages materializes the override stages (nil when the respective
// flags are unset).
func (o Overrides) Stages() (*spec.SolverStage, *spec.CostStage, error) {
	var sol *spec.SolverStage
	var cst *spec.CostStage
	var err error
	if o.Strategy != "" || o.Budget != "" {
		if sol, err = spec.SolverOverride(o.Strategy, o.Budget, o.Seed, o.Workers); err != nil {
			return nil, nil, err
		}
	}
	if o.Backend != "" {
		if cst, err = spec.CostOverride(o.Backend, o.Seed); err != nil {
			return nil, nil, err
		}
	}
	return sol, cst, nil
}

// Scenario resolves a spec and applies the override stages: a non-nil
// stage replaces the spec-declared one.
func (o Overrides) Scenario(ss spec.ScenarioSpec) (spec.Scenario, error) {
	sc, err := ss.Resolve()
	if err != nil {
		return spec.Scenario{}, err
	}
	sol, cst, err := o.Stages()
	if err != nil {
		return spec.Scenario{}, err
	}
	if sol != nil {
		sc.Solver = sol
	}
	if cst != nil {
		sc.Cost = cst
	}
	return sc, nil
}

type scenarioTask struct {
	Spec json.RawMessage `json:"spec"`
	Ov   Overrides       `json:"overrides"`
}

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
	var t scenarioTask
	if err := json.Unmarshal(payload, &t); err != nil {
		return nil, fmt.Errorf("sim: decode scenario task: %w", err)
	}
	ss, err := spec.ParseScenario(t.Spec)
	if err != nil {
		return nil, err
	}
	res := ScenarioResult{Name: ss.Name}
	if sc, err := t.Ov.Scenario(ss); err != nil {
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

// RunScenarioSpecs resolves and runs serialized scenario specs with
// the override stages applied, one task per spec: sharded across f's
// workers, or in-process through the same handler when f is nil or
// degraded. Results merge back into spec order and are bit-identical
// at any worker count. A spec that fails to resolve contributes an
// error result rather than aborting the batch; scenarios not finished
// when ctx ends report ctx.Err(), and workers receive best-effort
// shard cancellation.
func RunScenarioSpecs(ctx context.Context, f *distrib.Fabric, specs []spec.ScenarioSpec, ov Overrides) []ScenarioResult {
	payloads := make([][]byte, len(specs))
	out := make([]ScenarioResult, len(specs))
	encErr := make([]error, len(specs))
	for i, s := range specs {
		raw, err := json.Marshal(s)
		if err == nil {
			var b []byte
			b, err = json.Marshal(scenarioTask{Spec: raw, Ov: ov})
			payloads[i] = b
		}
		if err != nil {
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
