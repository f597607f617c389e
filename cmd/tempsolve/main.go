// Command tempsolve runs the partition-mapping search for a model:
// any registered search strategy (the paper's dual-level GA, simulated
// annealing, random-restart hill-climb, chain-DP only, or a portfolio
// racing them) over the hybrid strategy space, followed by a
// full-simulator evaluation of the best uniform configuration. Models
// and wafers resolve through the scenario registry; -scenario solves
// the model/wafer pair a JSON scenario defines (honouring its solver
// stage unless -strategy overrides it).
//
//	tempsolve -model gpt3-175b
//	tempsolve -model llama3-70b -strategy portfolio
//	tempsolve -model llama3-70b -strategy anneal -budget 20000,30s
//	tempsolve -model llama3-70b -no-ga
//	tempsolve -scenario examples/custom_scenario/scenario.json
//	tempsolve -scenarios scenarios/
//	tempsolve -list-strategies
package main

import (
	"flag"
	"fmt"
	"os"

	"temp/internal/baselines"
	"temp/internal/cli"
	"temp/internal/cost"
	"temp/internal/distrib"
	"temp/internal/fault"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/solver"
	"temp/internal/spec"
	"temp/internal/unit"
)

// resilience carries the -repair/-fault-campaign post-solve stages:
// both act on the solved dominant configuration, repair warm-starting
// its search from that mapping. Campaigns accumulate into the one
// survivability artifact, rewritten after each solve.
type resilience struct {
	repair       bool
	campaignPath string
	campaigns    []fault.CampaignResult
	in           fault.Injection
	faultSeed    int64
	seed         int64
	workers      int
}

// run applies the stages to the solved mapping.
func (rz *resilience) run(m model.Config, w hw.Wafer, cfg parallel.Config, o cost.Options, backendKey string) error {
	if rz.repair {
		rec, err := fault.RepairInjected(m, w, cfg, o, rz.in, rz.faultSeed, fault.RepairOptions{
			Backend: backendKey, Seed: rz.seed,
			Budget: solver.Budget{Workers: rz.workers},
		})
		if err != nil {
			return err
		}
		fmt.Printf("repair       link=%.0f%% core=%.0f%% seed=%d: %d dead links, %d dead dies\n",
			rz.in.LinkRate*100, rz.in.CoreRate*100, rz.faultSeed,
			rec.Report.DeadLinks, rec.Report.DeadDies)
		fmt.Printf("             re-price %.3f -> repaired %.3f on %s (%s, %d evals, %s)\n",
			rec.RepriceNorm, rec.RepairedNorm, rec.RepairedConfig,
			rec.Strategy, rec.WarmEvals, rec.WarmElapsed)
	}
	if rz.campaignPath != "" {
		cr, err := fault.Campaign{
			Model: m, Wafer: w, Config: cfg, Opts: o,
			Backend: backendKey, Workers: rz.workers,
		}.Run()
		if err != nil {
			return err
		}
		fmt.Printf("campaign     %d cells x %d trials -> %s\n",
			len(cr.Cells), cr.Trials, rz.campaignPath)
		rz.campaigns = append(rz.campaigns, cr)
		return cli.WriteJSON(rz.campaignPath, rz.campaigns)
	}
	return nil
}

// solve runs the search strategy plus full-simulator cross-check for
// one model/wafer pair. backendKey selects the cost backend whose
// operator model prices the search exactly ("" = analytic); the
// multifid strategy (and the portfolio, which races it) additionally
// screens on the surrogate tier seeded with screenSeed. Only a
// portfolio builds the run's fabric (from -distribute or the specs'
// distrib block), racing one strategy per worker process.
func solve(c *cli.Config, specs []spec.ScenarioSpec, m model.Config, w hw.Wafer, st solver.Strategy, b solver.Budget, backendKey string, screenSeed int64, o cost.Options, rz *resilience) error {
	ctx := c.Ctx
	g := model.BlockGraph(m)
	space := parallel.EnumerateConfigs(w.Dies(), true, 0)
	if len(space) == 0 {
		return fmt.Errorf("no power-of-two strategy space for %d dies on %s", w.Dies(), w.Name)
	}
	cm, screen, err := solver.SearchModels(st.Name(), backendKey, m, w, screenSeed)
	if err != nil {
		return err
	}
	p := solver.Problem{Graph: g, Space: space, Model: cm, Screen: screen}

	var assign solver.Assignment
	var stats solver.Stats
	var fab *distrib.Fabric
	if st.Name() == "portfolio" {
		fab = c.Fabric(specs)
	} else if c.Distribute > 0 {
		fmt.Fprintln(os.Stderr, "tempsolve: -distribute races the portfolio; strategy", st.Name(), "runs in-process")
	}
	if fab != nil {
		// Distributed racing: one racer per worker process, winner
		// selection identical to the in-process portfolio.
		assign, stats, err = solver.DistributedRace(ctx, fab, m, w, backendKey, c.Seed, screenSeed, b)
		if err != nil {
			return err
		}
	} else {
		assign, stats = st.Solve(ctx, p, b)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "tempsolve: interrupted — reporting best-so-far mapping")
	}
	fmt.Printf("model        %s on %s\n", m, w.Name)
	backendName := "analytic"
	if backendKey != "" {
		backendName = backendKey
	}
	fmt.Printf("backend      %s\n", backendName)
	fmt.Printf("strategy     %s", stats.Strategy)
	if stats.Winner != "" {
		fmt.Printf(" (winner %s of %d racers)", stats.Winner, len(stats.Sub))
	}
	fmt.Println()
	fmt.Printf("search space %d strategies × %d operators\n", len(space), len(g.Ops))
	fmt.Printf("search time  %s (%d exact cost-model evaluations", stats.Elapsed, stats.Evaluations)
	if stats.ScreenEvaluations > 0 {
		fmt.Printf(", %d surrogate screen evaluations", stats.ScreenEvaluations)
	}
	switch {
	case stats.Generations > 0:
		fmt.Printf(", %d GA generations", stats.Generations)
	case stats.Restarts > 0:
		fmt.Printf(", %d moves over %d restarts", stats.Iterations, stats.Restarts)
	case stats.Iterations > 0:
		fmt.Printf(", %d moves", stats.Iterations)
	}
	fmt.Println(")")
	if len(stats.Checkpoints) > 0 {
		last := stats.Checkpoints[len(stats.Checkpoints)-1]
		fmt.Printf("checkpoints  %d (last: iter %d, cost %.3fms)\n",
			len(stats.Checkpoints), last.Iteration, last.Cost*1e3)
	}
	fmt.Printf("seed cost %.3fms, final cost %.3fms\n", stats.DPCost*1e3, stats.FinalCost*1e3)
	fmt.Println("per-operator strategies:")
	for i, op := range g.Ops {
		fmt.Printf("  %-14s %s\n", op.Name, space[assign[i]])
	}
	idx, share := solver.Uniform(assign)
	fmt.Printf("dominant strategy %s (%.0f%% of operators)\n", space[idx], share*100)

	// Cross-check against the full simulator sweep.
	best, err := baselines.Best(baselines.TEMP(), m, w)
	if err != nil {
		return err
	}
	fmt.Printf("full-simulator best: %s → step %s, %.1f tokens/s (OOM=%v)\n",
		best.Config, unit.Seconds(best.StepTime), best.ThroughputTokens, best.OOM())
	// The resilience stages act on the mapping a user would deploy —
	// the full-simulator best — so the recovery norms are relative to
	// the deployed baseline.
	return rz.run(m, w, best.Config, o, backendKey)
}

// solveScenario resolves a scenario spec and solves its model/wafer.
// The scenario's own solver stage applies unless the CLI overrides
// the strategy.
func solveScenario(c *cli.Config, specs []spec.ScenarioSpec, ss spec.ScenarioSpec, st solver.Strategy, b solver.Budget, override bool, costStage *spec.CostStage, rz *resilience) error {
	screenSeed := c.Seed
	sc, err := ss.Resolve()
	if err != nil {
		return err
	}
	if costStage != nil {
		sc.Cost = costStage
	}
	if !override && sc.Solver != nil {
		st = sc.Solver.Strategy
		workers := b.Workers
		b = sc.Solver.Budget
		if b.Workers == 0 {
			b.Workers = workers
		}
		if sc.Solver.Seed != 0 {
			screenSeed = sc.Solver.Seed
		}
	}
	fmt.Printf("scenario     %s\n", sc.Name)
	backendKey := ""
	if sc.Cost != nil {
		backendKey = sc.Cost.Key
	}
	// Cost-stage surrogate seed wins; otherwise the CLI/stage seed,
	// matching the direct model/wafer path.
	if s := sc.Cost.SurrogateSeed(); s != 0 {
		screenSeed = s
	}
	return solve(c, specs, sc.Model, sc.Wafer, st, b, backendKey, screenSeed, sc.System.Opts, rz)
}

func main() {
	c := cli.Config{Name: "tempsolve", Model: "gpt3-6.7b", Strategy: "ga"}
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

	strategyName := c.Strategy
	overridden := *noGA
	strategySet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "strategy" || f.Name == "budget" {
			overridden = true
		}
		if f.Name == "strategy" {
			strategySet = true
		}
	})
	if *noGA {
		if strategySet && strategyName != "dp" {
			c.Fail(fmt.Errorf("-no-ga conflicts with -strategy %s (it is an alias for -strategy dp)", strategyName))
		}
		strategyName = "dp"
	}
	st, err := solver.NewStrategy(strategyName, solver.Params{"seed": float64(c.Seed)})
	if err != nil {
		c.Fail(err)
	}
	b, err := spec.ParseBudget(c.Budget)
	if err != nil {
		c.Fail(err)
	}
	b.Workers = c.Workers
	costStage, err := spec.CostOverride(c.Backend, c.Seed)
	if err != nil {
		c.Fail(err)
	}
	backendKey := ""
	if costStage != nil {
		backendKey = costStage.Key
	}
	rz := &resilience{
		repair:       c.Repair,
		campaignPath: c.FaultCampaign,
		in:           fault.Injection{LinkRate: *faultLink, CoreRate: *faultCore, CoresPerDie: 64},
		faultSeed:    *faultSeed,
		seed:         c.Seed,
		workers:      c.Workers,
	}

	specs, err := c.Specs()
	if err != nil {
		c.Fail(err)
	}
	if len(specs) > 0 {
		for i, ss := range specs {
			if i > 0 {
				fmt.Println()
			}
			if err := solveScenario(&c, specs, ss, st, b, overridden, costStage, rz); err != nil {
				c.Fail(err)
			}
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
	if err := solve(&c, nil, m, w, st, b, backendKey, c.Seed, baselines.TEMP().Opts, rz); err != nil {
		c.Fail(err)
	}
}
