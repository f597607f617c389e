// Command tempsim evaluates one training configuration on the wafer
// simulator and prints the latency/memory/power breakdown. Models and
// wafers resolve through the scenario registry, and whole scenarios
// can be supplied as JSON files. -strategy or -budget writes a
// partition-mapping search stage into every scenario run (replacing a
// declared one), solved by any registered strategy under the budget.
//
//	tempsim -model gpt3-6.7b -dp 4 -tatp 8
//	tempsim -model llama3-70b -engine smap -tp 8 -dp 4 -recompute none
//	tempsim -scenario examples/custom_scenario/scenario.json
//	tempsim -scenario scenario.json -strategy portfolio -budget 30s
//	tempsim -scenarios scenarios/        # batch, one result per file
//	tempsim -list-models                 # registry contents
//	tempsim -list-strategies             # search strategies
package main

import (
	"flag"
	"fmt"
	"strings"

	"temp/internal/cli"
	"temp/internal/cost"
	"temp/internal/engine"
	"temp/internal/fault"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/sim"
	"temp/internal/spec"
	"temp/internal/unit"
)

// printBreakdown renders one evaluation in tempsim's usual layout.
func printBreakdown(m model.Config, w hw.Wafer, cfg parallel.Config, o cost.Options, b cost.Breakdown) {
	nw := o.Wafers
	if nw < 1 {
		nw = 1
	}
	fmt.Printf("model      %s on %s (%d dies, %d wafer(s))\n", m, w.Name, w.Dies(), nw)
	fmt.Printf("config     %s engine=%s recompute=%s\n", cfg, o.Engine, o.Recompute)
	fmt.Printf("step       %s\n", unit.Seconds(b.StepTime))
	fmt.Printf("  compute  %s\n", unit.Seconds(b.ComputeTime))
	fmt.Printf("  stream   %s (exposed)\n", unit.Seconds(b.StreamTime))
	fmt.Printf("  coll     %s\n", unit.Seconds(b.CollectiveTime))
	fmt.Printf("  bubble   %s\n", unit.Seconds(b.BubbleTime))
	fmt.Printf("memory     %s / %s per die (OOM=%v)\n",
		unit.Bytes(b.Memory.Total()), unit.Bytes(b.Memory.Capacity), b.OOM())
	fmt.Printf("  weights=%s grads=%s optim=%s acts=%s stream=%s\n",
		unit.Bytes(b.Memory.Weights), unit.Bytes(b.Memory.Grads),
		unit.Bytes(b.Memory.Optimizer), unit.Bytes(b.Memory.Activations),
		unit.Bytes(b.Memory.StreamBuf))
	fmt.Printf("throughput %.1f tokens/s, power %.0f W, %.3f tokens/s/W, BW util %.1f%%\n",
		b.ThroughputTokens, b.Power, b.PowerEfficiency, b.BWUtilization*100)
}

// printScenarioResult renders one batch entry compactly.
func printScenarioResult(r sim.ScenarioResult) {
	if r.Err != nil {
		fmt.Printf("%-24s ERROR: %v\n", r.Name, r.Err)
		return
	}
	status := "ok"
	if !r.Result.Feasible {
		status = "OOM"
	}
	line := fmt.Sprintf("%-24s %-12s %-32s %-4s step=%s tput=%.1f tok/s",
		r.Name, r.Result.System, r.Result.Config.String(), status,
		unit.Seconds(r.Result.StepTime), r.Result.ThroughputTokens)
	if r.Faulted {
		line += fmt.Sprintf(" fault-norm-tput=%.3f", r.FaultNormTput)
	}
	if r.Recovery != nil {
		line += fmt.Sprintf(" repair=%.3f->%.3f", r.Recovery.RepriceNorm, r.Recovery.RepairedNorm)
	}
	if r.Solver != nil {
		line += fmt.Sprintf(" solver=%s cost=%.3fms", r.Solver.Strategy, r.Solver.FinalCost*1e3)
	}
	fmt.Println(line)
}

// printRecovery renders a repair-stage record.
func printRecovery(rec *fault.Recovery) {
	fmt.Printf("repair     %d dead links, %d dead dies: re-price %.3f -> repaired %.3f on %s (%s, %d evals, %s)\n",
		rec.Report.DeadLinks, rec.Report.DeadDies, rec.RepriceNorm, rec.RepairedNorm,
		rec.RepairedConfig, rec.Strategy, rec.WarmEvals, rec.WarmElapsed)
	if rec.ColdEvals > 0 {
		fmt.Printf("           cold re-solve: %.3f (%d evals, %s)\n",
			rec.ColdNorm, rec.ColdEvals, rec.ColdElapsed)
	}
}

// printCampaign renders a survivability grid.
func printCampaign(cr *fault.CampaignResult) {
	fmt.Printf("campaign   %s on %s, config %s (%d trials/cell, seed %d, backend %s)\n",
		cr.Model, cr.Wafer, cr.Config, cr.Trials, cr.Seed, cr.Backend)
	for _, c := range cr.Cells {
		fmt.Printf("  link %4.0f%% core %4.0f%%: functional %5.1f%%  mean %.3f  p5 %.3f  min %.3f\n",
			c.LinkRate*100, c.CoreRate*100, c.FunctionalRate*100, c.MeanNorm, c.P5Norm, c.MinNorm)
	}
}

// printSolverOutcome renders a scenario's search stage.
func printSolverOutcome(o *sim.SolverOutcome) {
	name := o.Strategy
	if o.Winner != "" {
		name += " (winner " + o.Winner + ")"
	}
	evals := fmt.Sprintf("%d exact evals", o.Evaluations)
	if o.ScreenEvaluations > 0 {
		evals += fmt.Sprintf(" + %d screen evals", o.ScreenEvaluations)
	}
	fmt.Printf("solver     %s on %s: seed %.3fms -> final %.3fms (%s, %s)\n",
		name, o.Backend, o.DPCost*1e3, o.FinalCost*1e3, evals, o.Elapsed)
	fmt.Printf("           dominant per-op strategy %s (%.0f%% of operators)\n",
		o.Dominant, o.Share*100)
}

// printScenario renders one scenario run in full: its breakdown plus
// every stage that ran.
func printScenario(sc spec.Scenario, res sim.ScenarioResult) {
	r := res.Result
	opts := sc.System.Opts
	if sc.Wafers > 1 {
		opts.Wafers = sc.Wafers
	}
	backend := "analytic"
	if sc.Cost != nil && sc.Cost.Key != "" {
		backend = sc.Cost.Key
	}
	fmt.Printf("scenario   %s (system %s, backend %s)\n", sc.Name, sc.System.Name, backend)
	printBreakdown(sc.Model, sc.Wafer, r.Config, opts, r.Breakdown)
	if !r.Feasible {
		fmt.Println("status     OOM: no feasible configuration; showing lowest-memory attempt")
	}
	if res.Faulted {
		fmt.Printf("fault      norm tput %.3f (link=%.2f core=%.2f, %d trials)\n",
			res.FaultNormTput, sc.Fault.LinkRate, sc.Fault.CoreRate, sc.Fault.TrialCount())
	}
	if res.Recovery != nil {
		printRecovery(res.Recovery)
	}
	if res.Campaign != nil {
		printCampaign(res.Campaign)
	}
	if res.Solver != nil {
		printSolverOutcome(res.Solver)
	}
}

func main() {
	c := cli.Config{Name: "tempsim", Model: "gpt3-6.7b"}
	c.RegisterBatch(flag.CommandLine)
	var (
		rows    = flag.Int("rows", 4, "wafer die rows")
		cols    = flag.Int("cols", 8, "wafer die columns")
		dp      = flag.Int("dp", 1, "data parallel degree")
		tp      = flag.Int("tp", 1, "tensor parallel degree")
		sp      = flag.Int("sp", 1, "sequence parallel degree")
		cp      = flag.Int("cp", 1, "context parallel degree")
		tatp    = flag.Int("tatp", 1, "TATP stream parallel degree")
		pp      = flag.Int("pp", 1, "pipeline degree across wafers")
		wafers  = flag.Int("wafers", 1, "wafer count")
		mapper  = flag.String("engine", "tcme", "mapping engine: smap|gmap|tcme")
		rec     = flag.String("recompute", "selective", "recompute: none|selective|full")
		fsdp    = flag.Bool("fsdp", false, "fully sharded data parallelism")
		mesp    = flag.Bool("megatron-sp", false, "Megatron-3 fused sequence parallelism")
		mb      = flag.Int("microbatch", 0, "sequences per rank per micro-step")
		debugTr = flag.Bool("debug", false, "print the calibration trace")
		listS   = flag.Bool("list-systems", false, "list registered system names")
	)
	flag.Parse()
	defer c.Close()
	if c.Setup() {
		return
	}
	if *listS {
		for _, n := range spec.Systems.Names() {
			fmt.Println(n)
		}
		return
	}

	if c.Scenario != "" || c.Scenarios != "" {
		// -distribute (or a spec-declared distrib block) shards the
		// batch across worker subprocesses; results merge in spec order
		// and match the in-process run bit-for-bit.
		specs, err := c.Specs()
		if err != nil {
			c.Fail(err)
		}
		results, err := c.RunSpecs(specs)
		if err != nil {
			c.Fail(err)
		}
		if c.Scenario != "" {
			res := results[0]
			if res.Err != nil {
				c.Fail(res.Err)
			}
			sc, err := specs[0].Resolve()
			if err != nil {
				c.Fail(err)
			}
			printScenario(sc, res)
			return
		}
		failed := false
		for _, r := range results {
			printScenarioResult(r)
			failed = failed || r.Err != nil
		}
		if failed {
			c.Exit(1)
		}
		return
	}

	m, err := spec.LookupModel(c.Model)
	if err != nil {
		c.Fail(err)
	}
	w := hw.WaferWithGrid(*rows, *cols)
	if c.Wafer != "" {
		if w, err = spec.LookupWafer(c.Wafer); err != nil {
			c.Fail(err)
		}
	}
	cfg := parallel.Config{DP: *dp, TP: *tp, SP: *sp, CP: *cp, TATP: *tatp, PP: *pp,
		FSDP: *fsdp, MegatronSP: *mesp}
	o := cost.Options{Microbatch: *mb, Wafers: *wafers, DistributedOptimizer: true}
	switch strings.ToLower(*mapper) {
	case "smap":
		o.Engine = cost.SMap
	case "gmap":
		o.Engine = cost.GMap
	default:
		o.Engine = cost.TCMEEngine
	}
	switch strings.ToLower(*rec) {
	case "none":
		o.Recompute = cost.RecomputeNone
	case "full":
		o.Recompute = cost.RecomputeFull
	default:
		o.Recompute = cost.RecomputeSelective
	}

	if err := c.RejectStageFlags(); err != nil {
		c.Fail(err)
	}
	cs, err := c.CostSpec()
	if err != nil {
		c.Fail(err)
	}
	key := ""
	if cs != nil {
		key = cs.Key()
	}
	b, err := engine.EvaluateJob(engine.Job{Model: m, Wafer: w, Config: cfg, Opts: o, Backend: key})
	if err != nil {
		c.Fail(err)
	}
	printBreakdown(m, w, cfg, o, b)
	if *debugTr {
		fmt.Println("trace     ", cost.Debug(m, w, cfg, o))
	}
	if c.FaultCampaign != "" {
		cr, err := fault.Campaign{
			Model: m, Wafer: w, Config: cfg, Opts: o,
			Backend: key, Workers: c.Workers,
		}.RunOn(c.Fabric(nil))
		if err == nil {
			printCampaign(&cr)
			err = cli.WriteJSON(c.FaultCampaign, []fault.CampaignResult{cr})
		}
		if err != nil {
			c.Fail(err)
		}
	}
}
