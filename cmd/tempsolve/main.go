// Command tempsolve runs the partition-mapping search for a model:
// any registered search strategy (the paper's dual-level GA, simulated
// annealing, random-restart hill-climb, chain-DP only, or a portfolio
// racing them) over the hybrid strategy space, followed by a
// full-simulator evaluation of the best uniform configuration. Every
// run is a scenario batch on the runner tempsim and tempbench use:
// the flags build one scenario (-model on -wafer or a -rows × -cols
// grid, under TEMP), or -scenario/-scenarios load them. A scenario
// solves under its solver stage, which -strategy/-budget replace (a
// scenario without one solves with the default ga seeded by -seed).
//
//	tempsolve -model gpt3-175b
//	tempsolve -model llama3-70b -strategy portfolio
//	tempsolve -model llama3-70b -strategy anneal -budget 20000,30s
//	tempsolve -model llama3-70b -no-ga
//	tempsolve -model gpt3-6.7b -repair -fault-link 0.2
//	tempsolve -scenario examples/custom_scenario/scenario.json
//	tempsolve -scenarios scenarios/
//	tempsolve -list-strategies
package main

import (
	"flag"
	"fmt"
	"os"

	"temp/internal/cli"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/sim"
	"temp/internal/spec"
	"temp/internal/unit"
)

// printResult renders one solved scenario: the search, the
// full-simulator best, and the repair and campaign stages that ran.
// The per-operator lines read the resolved scenario's block graph and
// strategy space, the ones the solver stage searched.
func printResult(c *cli.Config, sc spec.Scenario, res sim.ScenarioResult) {
	if c.Scenario != "" || c.Scenarios != "" {
		fmt.Printf("scenario     %s\n", sc.Name)
	}
	o := res.Solver
	g := model.BlockGraph(sc.Model)
	space := parallel.EnumerateConfigs(sc.Wafer.Dies(), true, 0)
	fmt.Printf("model        %s on %s\n", sc.Model, sc.Wafer.Name)
	fmt.Printf("backend      %s\n", o.Backend)
	fmt.Printf("strategy     %s", o.Strategy)
	if o.Winner != "" {
		fmt.Printf(" (winner %s)", o.Winner)
	}
	fmt.Println()
	fmt.Printf("search space %d strategies × %d operators\n", len(space), len(g.Ops))
	fmt.Printf("search time  %s (%d exact cost-model evaluations", o.Elapsed, o.Evaluations)
	if o.ScreenEvaluations > 0 {
		fmt.Printf(", %d surrogate screen evaluations", o.ScreenEvaluations)
	}
	fmt.Println(")")
	fmt.Printf("seed cost %.3fms, final cost %.3fms\n", o.DPCost*1e3, o.FinalCost*1e3)
	fmt.Println("per-operator strategies:")
	for i, op := range g.Ops {
		fmt.Printf("  %-14s %s\n", op.Name, space[o.Assignment[i]])
	}
	fmt.Printf("dominant strategy %s (%.0f%% of operators)\n", o.Dominant, o.Share*100)
	best := res.Result
	fmt.Printf("full-simulator best: %s → step %s, %.1f tokens/s (OOM=%v)\n",
		best.Config, unit.Seconds(best.StepTime), best.ThroughputTokens, best.OOM())
	// The resilience stages act on the full-simulator best, the mapping
	// a user would deploy, so the recovery norms are relative to it.
	if rec := res.Recovery; rec != nil {
		f := sc.Fault
		fmt.Printf("repair       link=%.0f%% core=%.0f%% seed=%d: %d dead links, %d dead dies\n",
			f.LinkRate*100, f.CoreRate*100, f.RandSeed(),
			rec.Report.DeadLinks, rec.Report.DeadDies)
		fmt.Printf("             re-price %.3f -> repaired %.3f on %s (%s, %d evals, %s)\n",
			rec.RepriceNorm, rec.RepairedNorm, rec.RepairedConfig,
			rec.Strategy, rec.WarmEvals, rec.WarmElapsed)
	}
	if cr := res.Campaign; cr != nil {
		fmt.Printf("campaign     %d cells x %d trials", len(cr.Cells), cr.Trials)
		if c.FaultCampaign != "" {
			fmt.Printf(" -> %s", c.FaultCampaign)
		}
		fmt.Println()
	}
}

func main() {
	c := cli.Config{Name: "tempsolve", Model: "gpt3-6.7b"}
	c.RegisterBatch(flag.CommandLine)
	var (
		rows      = flag.Int("rows", 4, "wafer die rows")
		cols      = flag.Int("cols", 8, "wafer die columns")
		noGA      = flag.Bool("no-ga", false, "stop after chain dynamic programming (alias for -strategy dp)")
		faultLink = flag.Float64("fault-link", 0.15, "-repair link-fault rate")
		faultCore = flag.Float64("fault-core", 0, "-repair core-fault rate")
		faultSeed = flag.Int64("fault-seed", 3, "-repair fault-mask seed")
	)
	flag.Parse()
	defer c.Close()
	if c.Setup() {
		return
	}

	if *noGA {
		if c.Strategy != "" && (spec.SolverSpec{Strategy: c.Strategy}).StrategyName() != "dp" {
			c.Fail(fmt.Errorf("-no-ga conflicts with -strategy %s (it is an alias for -strategy dp)", c.Strategy))
		}
		c.Strategy = "dp"
	}
	wafer := spec.WaferRef{Name: c.Wafer}
	if c.Wafer == "" {
		ws := spec.WaferSpecOf(hw.WaferWithGrid(*rows, *cols))
		wafer.Spec = &ws
	}
	c.RepairFault = &spec.FaultSpec{LinkRate: *faultLink, CoreRate: *faultCore, CoresPerDie: 64, Seed: *faultSeed}
	specs, err := c.Specs(spec.ScenarioSpec{Name: c.Model, Model: spec.ModelRef{Name: c.Model}, Wafer: wafer})
	if err != nil {
		c.Fail(err)
	}
	for i := range specs {
		if specs[i].Solver == nil {
			specs[i].Solver = &spec.SolverSpec{Seed: c.Seed}
		}
	}
	results, err := c.RunSpecs(specs)
	if err != nil {
		c.Fail(err)
	}
	for i, res := range results {
		// A first signal stops a search at its next budget check, and
		// its scenario reports the best-so-far mapping; scenarios that
		// had not started fail the run.
		interrupted := res.Err != nil && res.Solver != nil && c.Ctx.Err() != nil
		if res.Err != nil && !interrupted {
			c.Fail(res.Err)
		}
		sc, err := specs[i].Resolve()
		if err != nil {
			c.Fail(err)
		}
		if i > 0 {
			fmt.Println()
		}
		if interrupted {
			fmt.Fprintln(os.Stderr, "tempsolve: interrupted — reporting best-so-far mapping")
		}
		printResult(&c, sc, res)
	}
}
