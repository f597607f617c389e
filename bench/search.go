package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"temp/internal/engine"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/solver"
	"temp/internal/spec"
)

// The search workload times the paper's challenge 3, search time: one
// op builds a strategy's cost models (solver.SearchModels, which trains
// the surrogate screen for multifid and portfolio) and solves the
// per-operator partition-mapping problem with default params and
// budget, the body of sim's solver stage.

func runSearch(o options) (*report, error) { return runBatch(o, "search") }

// solveOut is one solve's outcome, kept for the output checks.
type solveOut struct {
	Assignment solver.Assignment `json:"assignment"`
	FinalCost  float64           `json:"final_cost"`
	Evals      int               `json:"evals"`
	Screen     int               `json:"screen_evals"`
	exact      solver.CostModel
	graph      model.Graph
	space      []parallel.Config
	err        error
}

func searchRep(job childJob) (repResult, error) {
	engine.SetWorkers(runtime.GOMAXPROCS(0))
	ops := searchInputs(job.Seed, job.Smoke)
	models := make([]model.Config, len(ops))
	wafers := make([]hw.Wafer, len(ops))
	for i, op := range ops {
		var err error
		if models[i], err = spec.LookupModel(op.Model); err != nil {
			return repResult{}, err
		}
		if wafers[i], err = spec.LookupWafer(op.Wafer); err != nil {
			return repResult{}, err
		}
	}
	outs := make([]solveOut, len(ops))
	var rr repResult
	tr, stopTrace, err := beginTrace(job)
	if err != nil {
		return rr, err
	}
	var costModelNS atomic.Int64
	m := startMeter()
	rr.StartNS = m.start.UnixNano()
	for i, op := range ops {
		t0 := time.Now()
		root := tr.begin("op", i, -1)
		outs[i] = solve(tr, i, root, op, models[i], wafers[i], &costModelNS)
		tr.end(root)
		rr.OpNS = append(rr.OpNS, time.Since(t0).Nanoseconds())
	}
	rr.TimedNS, rr.CPUNS = m.stop()
	rr.RSSKB = maxRSSKB()

	var costs []float64
	evals, screen := 0, 0
	for i, op := range ops {
		rr.Attempted++
		o := outs[i]
		if o.err != nil {
			rr.fail("solve %d (%s %s): %v", i, op.Strategy, op.Model, o.err)
			continue
		}
		evals += o.Evals
		screen += o.Screen
		costs = append(costs, o.FinalCost)
		rr.Attempted++
		if err := checkSolve(o); err != nil {
			rr.fail("solve %d (%s %s): %v", i, op.Strategy, op.Model, err)
		}
	}
	if tr != nil {
		if err := stopTrace(&rr, len(ops), counters{}); err != nil {
			return rr, err
		}
		self := selfTimes(tr.spans)
		total := rootTime(tr.spans)
		n := float64(len(ops))
		rr.Layer["solver.evals_per_op"] = float64(evals) / n
		rr.Layer["solver.screen_evals_per_op"] = float64(screen) / n
		rr.Layer["solver.evals_per_s"] = ratio(float64(evals), self["solver.solve"]/1e9)
		rr.Layer["solver.build_share"] = ratio(self["solver.models"], total)
		rr.Layer["solver.solve_share"] = ratio(self["solver.solve"], total)
		rr.Layer["solver.costmodel_share"] = ratio(float64(costModelNS.Load()), total)
	}
	rr.Exact = map[string]string{
		"search_cost_geomean": fmt.Sprint(geomean(costs)),
		"outputs":             digest(outs),
	}
	return rr, nil
}

// solve runs one search op: model building, then the strategy's solve
// under the default budget (engine-bounded workers), as sim's solver
// stage does.
func solve(tr *tracer, i, root int, op searchOp, m model.Config, w hw.Wafer, costModelNS *atomic.Int64) solveOut {
	sp := tr.begin("solver.models", i, root)
	exact, screen, err := solver.SearchModels(op.Strategy, "", m, w, op.Seed)
	tr.end(sp)
	if err != nil {
		return solveOut{err: err}
	}
	st, err := solver.NewStrategy(op.Strategy, solver.Params{"seed": float64(op.Seed)})
	if err != nil {
		return solveOut{err: err}
	}
	out := solveOut{exact: exact, graph: model.BlockGraph(m), space: parallel.EnumerateConfigs(w.Dies(), true, 0)}
	priced := exact
	if tr != nil {
		priced = &timedModel{CostModel: exact, ns: costModelNS}
	}
	sp = tr.begin("solver.solve", i, root)
	a, stats := st.Solve(context.Background(),
		solver.Problem{Graph: out.graph, Space: out.space, Model: priced, Screen: screen},
		solver.Budget{Workers: engine.Workers()})
	tr.end(sp)
	out.Assignment, out.FinalCost = a, stats.FinalCost
	out.Evals, out.Screen = stats.Evaluations, stats.ScreenEvaluations
	return out
}

// checkSolve re-prices a solve's assignment on the exact model: every
// gene must fit in memory, and the chain objective Σ Intra + Σ Inter
// must equal the reported FinalCost within a relative 1e-9.
func checkSolve(o solveOut) error {
	ops := o.graph.Ops
	if len(o.Assignment) != len(ops) {
		return fmt.Errorf("assignment has %d genes for %d ops", len(o.Assignment), len(ops))
	}
	var total float64
	for i, g := range o.Assignment {
		cfg := o.space[g]
		if !o.exact.MemoryOK(cfg) {
			return fmt.Errorf("gene %d (%s) does not fit in memory", i, cfg)
		}
		total += o.exact.Intra(ops[i], cfg)
		if i > 0 {
			total += o.exact.Inter(ops[i-1], ops[i], o.space[o.Assignment[i-1]], cfg)
		}
	}
	if math.Abs(total-o.FinalCost) > 1e-9*math.Abs(o.FinalCost) {
		return fmt.Errorf("re-priced cost %g differs from FinalCost %g", total, o.FinalCost)
	}
	return nil
}

// costModelSample times one cost-model call in this many: timing every
// call would cost a sizable share of what the calls themselves take.
const costModelSample = 8

// timedModel wraps the exact cost model in a traced solve, adding the
// (sampled, scaled) time of its calls to ns. Calls come from every
// solver worker, so the total can exceed the solve's wall time.
type timedModel struct {
	solver.CostModel
	calls atomic.Int64
	ns    *atomic.Int64
}

func (t *timedModel) timed(f func()) {
	if t.calls.Add(1)%costModelSample != 0 {
		f()
		return
	}
	t0 := time.Now()
	f()
	t.ns.Add(costModelSample * time.Since(t0).Nanoseconds())
}

func (t *timedModel) Intra(op model.Op, cfg parallel.Config) (v float64) {
	t.timed(func() { v = t.CostModel.Intra(op, cfg) })
	return v
}

func (t *timedModel) Inter(prev, next model.Op, pc, nc parallel.Config) (v float64) {
	t.timed(func() { v = t.CostModel.Inter(prev, next, pc, nc) })
	return v
}

func (t *timedModel) MemoryOK(cfg parallel.Config) (ok bool) {
	t.timed(func() { ok = t.CostModel.MemoryOK(cfg) })
	return ok
}
