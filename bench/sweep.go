package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"temp/internal/baselines"
	"temp/internal/cost"
	"temp/internal/engine"
	"temp/internal/sim"
)

// The sweep workload is the paper's evaluation sweep on cold caches:
// one op resolves one generated scenario spec and finds the system's
// best configuration (sim.RunScenario, the body of
// sim.RunScenarioSpecs for a spec without solver or fault stages).

func runSweep(o options) (*report, error) { return runBatch(o, "sweep") }

func sweepRep(job childJob) (repResult, error) {
	engine.SetWorkers(runtime.GOMAXPROCS(0))
	ops := sweepInputs(job.Seed, job.Smoke)
	results := make([]baselines.Result, len(ops))
	errs := make([]error, len(ops))
	var rr repResult
	tr, stopTrace, err := beginTrace(job)
	if err != nil {
		return rr, err
	}
	m := startMeter()
	rr.StartNS = m.start.UnixNano()
	for i, op := range ops {
		t0 := time.Now()
		root := tr.begin("op", i, -1)
		sp := tr.begin("spec.resolve", i, root)
		sc, err := op.Spec.Resolve()
		tr.end(sp)
		if err == nil {
			sp = tr.begin("sim.run", i, root)
			results[i], err = sim.RunScenario(sc)
			tr.end(sp)
		}
		tr.end(root)
		rr.OpNS = append(rr.OpNS, time.Since(t0).Nanoseconds())
		errs[i] = err
	}
	rr.TimedNS, rr.CPUNS = m.stop()
	rr.RSSKB = maxRSSKB()
	if tr != nil {
		if err := stopTrace(&rr, len(ops), counters{}); err != nil {
			return rr, err
		}
		self := selfTimes(tr.spans)
		total := rootTime(tr.spans)
		rr.Layer["spec.resolve_share"] = ratio(self["spec.resolve"], total)
		rr.Layer["sim.run_share"] = ratio(self["sim.run"], total)
	}

	var tputs []float64
	for i, op := range ops {
		rr.Attempted++
		if errs[i] != nil {
			rr.fail("%s: %v", op.Spec.Name, errs[i])
			continue
		}
		if results[i].Feasible {
			tputs = append(tputs, results[i].ThroughputTokens)
		}
		if op.Verify {
			rr.Attempted++
			if err := verifySweep(op, results[i]); err != nil {
				rr.fail("%s: %v", op.Spec.Name, err)
			}
		}
	}
	rr.Exact = map[string]string{
		"mapping_tput_geomean": fmt.Sprint(geomean(tputs)),
		"outputs":              digest(results),
	}
	return rr, nil
}

// verifySweep re-prices the chosen configuration through
// cost.EvaluateWith, outside the engine and its caches; the breakdown
// must be bit-identical to the one the sweep returned.
func verifySweep(op sweepOp, got baselines.Result) error {
	sc, err := op.Spec.Resolve()
	if err != nil {
		return err
	}
	key := ""
	if sc.Cost != nil {
		key = sc.Cost.Key
	}
	want, err := cost.EvaluateWith(key, sc.Model, sc.Wafer, got.Config, sc.System.Opts)
	if err != nil {
		return fmt.Errorf("re-price: %w", err)
	}
	a, err1 := json.Marshal(got.Breakdown)
	b, err2 := json.Marshal(want)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("breakdown does not encode: %v %v", err1, err2)
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("re-priced %s differs from the sweep's result", got.Config)
	}
	return nil
}
