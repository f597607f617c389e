package serve

import (
	"context"
	"fmt"
	"time"

	"temp/internal/baselines"
	"temp/internal/engine"
	"temp/internal/fault"
	"temp/internal/sim"
	"temp/internal/solver"
	"temp/internal/spec"
)

// ResultWire is one scenario's outcome on the wire:
// sim.ScenarioResult with the error flattened to text so it
// JSON-encodes. Floats round-trip exactly through encoding/json
// (shortest-representation), so byte-comparing two marshalled
// ResultWire slices is a bit-identity check on the underlying
// results.
type ResultWire struct {
	Name          string                `json:"name"`
	Result        baselines.Result      `json:"result"`
	FaultNormTput float64               `json:"fault_norm_tput,omitempty"`
	Faulted       bool                  `json:"faulted,omitempty"`
	Solver        *sim.SolverOutcome    `json:"solver,omitempty"`
	Recovery      *fault.Recovery       `json:"recovery,omitempty"`
	Campaign      *fault.CampaignResult `json:"campaign,omitempty"`
	Err           string                `json:"error,omitempty"`
}

// CanonicalResults returns a copy of the results with wall-clock
// timing fields zeroed — everything left is deterministic for a
// fixed (spec, seed, budget), so byte-comparing two canonicalized
// marshallings is the served-vs-direct bit-identity check.
func CanonicalResults(rs []ResultWire) []ResultWire {
	out := append([]ResultWire(nil), rs...)
	for i := range out {
		if s := out[i].Solver; s != nil {
			cp := *s
			cp.Elapsed = 0
			out[i].Solver = &cp
		}
		if r := out[i].Recovery; r != nil {
			cp := *r
			cp.WarmElapsed, cp.ColdElapsed = 0, 0
			out[i].Recovery = &cp
		}
	}
	return out
}

// toWire flattens scenario results for the response body.
func toWire(rs []sim.ScenarioResult) []ResultWire {
	out := make([]ResultWire, len(rs))
	for i, r := range rs {
		out[i] = ResultWire{
			Name: r.Name, Result: r.Result,
			FaultNormTput: r.FaultNormTput, Faulted: r.Faulted,
			Solver: r.Solver, Recovery: r.Recovery, Campaign: r.Campaign,
		}
		if r.Err != nil {
			out[i].Err = r.Err.Error()
		}
	}
	return out
}

// Response is the POST /v1/solve response document (also the final
// SSE "done" event of a streamed solve).
type Response struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	// Results are in request scenario order, deterministic for a
	// given (spec, seed, budget) regardless of concurrency, worker
	// count, or cache warmth.
	Results []ResultWire `json:"results"`
	// QueueWaitNS is the time the request spent in the admission
	// queue; ElapsedNS the solve time after admission.
	QueueWaitNS int64 `json:"queue_wait_ns"`
	ElapsedNS   int64 `json:"elapsed_ns"`
	// Distributed reports whether the solve fanned out over the
	// worker fabric.
	Distributed bool `json:"distributed,omitempty"`
}

// CheckpointEvent is one streamed best-so-far snapshot: the solver
// checkpoint plus which scenario it belongs to.
type CheckpointEvent struct {
	Scenario string `json:"scenario"`
	solver.Checkpoint
}

// errorBody is the JSON error envelope for non-200 responses.
type errorBody struct {
	Error string `json:"error"`
}

// clampSolverBudget lowers b to the clamp's bounds: a tighter (or
// only) eval cap and deadline win; the clamp's checkpoint cadence
// applies only when the stage has none.
func clampSolverBudget(b, clamp solver.Budget) solver.Budget {
	if clamp.MaxEvals > 0 && (b.MaxEvals == 0 || b.MaxEvals > clamp.MaxEvals) {
		b.MaxEvals = clamp.MaxEvals
	}
	if clamp.Deadline > 0 && (b.Deadline == 0 || b.Deadline > clamp.Deadline) {
		b.Deadline = clamp.Deadline
	}
	if clamp.Checkpoint > 0 && b.Checkpoint == 0 {
		b.Checkpoint = clamp.Checkpoint
	}
	return b
}

// streamCheckpointInterval is the checkpoint cadence a streamed
// request gets when neither its scenarios nor its clamp budget set
// one — without it a streamed solve would emit no progress events.
const streamCheckpointInterval = 50

// resolveRequest resolves a validated request's scenarios and applies
// the request-level budget clamp (and, for streamed requests, the
// per-scenario checkpoint callback) to each solver stage. onCP may be
// nil; it is invoked concurrently when scenarios solve in parallel.
func resolveRequest(req spec.RequestSpec, onCP func(scenario string, cp solver.Checkpoint)) ([]spec.Scenario, error) {
	var clamp solver.Budget
	if req.Budget != nil {
		var err error
		if clamp, err = req.Budget.Budget(); err != nil {
			return nil, err
		}
	}
	specs := req.Specs()
	scs := make([]spec.Scenario, len(specs))
	for i, ss := range specs {
		sc, err := ss.Resolve()
		if err != nil {
			return nil, err
		}
		if sc.Solver != nil {
			// Resolve() builds a fresh stage per call, so mutating the
			// budget here never leaks across requests.
			sc.Solver.Budget = clampSolverBudget(sc.Solver.Budget, clamp)
			if onCP != nil {
				if sc.Solver.Budget.Checkpoint == 0 {
					sc.Solver.Budget.Checkpoint = streamCheckpointInterval
				}
				name := sc.Name
				if name == "" {
					name = fmt.Sprintf("scenario-%d", i)
				}
				sc.Solver.Budget.OnCheckpoint = func(cp solver.Checkpoint) { onCP(name, cp) }
			}
		}
		scs[i] = sc
	}
	return scs, nil
}

// RunRequest resolves and solves a request in-process — the exact
// code path the HTTP handler runs after admission, exported so the
// load generator's verify pass (and tests) can compare served
// responses against a direct solve bit-for-bit.
func RunRequest(req spec.RequestSpec) ([]ResultWire, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	scs, err := resolveRequest(req, nil)
	if err != nil {
		return nil, err
	}
	return toWire(sim.RunScenarios(context.Background(), scs)), nil
}

// clampedSpecs applies the request budget clamp to the serializable
// specs themselves — the fabric path, where scenarios travel to
// worker processes as JSON and resolved stages cannot. Checkpoint
// streaming does not cross the wire, so callers only fan out
// non-streamed requests.
func clampedSpecs(req spec.RequestSpec) []spec.ScenarioSpec {
	specs := req.Specs()
	if req.Budget == nil {
		return specs
	}
	out := make([]spec.ScenarioSpec, len(specs))
	for i, ss := range specs {
		if ss.Solver != nil {
			sol := *ss.Solver
			var b spec.BudgetSpec
			if sol.Budget != nil {
				b = *sol.Budget
			}
			b = spec.ClampBudget(b, *req.Budget)
			sol.Budget = &b
			ss.Solver = &sol
		}
		out[i] = ss
	}
	return out
}

// engineSnapshot is CountersSnapshot re-exported so the metrics
// handler and the load generator share one accessor.
func engineSnapshot() engine.Stats { return engine.CountersSnapshot() }

// sinceNS is a small helper keeping the wire structs free of
// time.Duration (which JSON-encodes as bare ns anyway).
func sinceNS(t time.Time) int64 { return time.Since(t).Nanoseconds() }
