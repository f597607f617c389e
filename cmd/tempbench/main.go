// Command tempbench regenerates the paper's tables and figures
// through the repository's simulator. Run with -list to see the
// experiment IDs, -exp <id> for a single artefact, or no flags for
// the full evaluation suite. The suite fans out across -workers
// goroutines on the shared evaluation engine; -json additionally
// writes each experiment's wall-clock time and headline observation
// to a machine-readable file for perf tracking across revisions.
//
// Models and wafers resolve through the scenario registry: -model and
// -wafer re-run the Table-II-driven experiments on a different
// footing, and -scenario/-scenarios evaluate declarative JSON
// scenarios outside the paper's frozen set entirely.
//
//	tempbench -exp fig13          # Fig. 13 training comparison
//	tempbench -quick              # full suite on reduced model set
//	tempbench -quick -json bench.json
//	tempbench -exp fig13 -model llama3-70b -wafer wsc-6x8
//	tempbench -exp strategies     # search-strategy comparison table
//	tempbench -scenarios scenarios/   # batch of JSON scenarios
//	tempbench -scenario s.json -strategy portfolio -budget 20000
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"temp/internal/cli"
	"temp/internal/collective"
	"temp/internal/distrib"
	"temp/internal/engine"
	"temp/internal/experiments"
	"temp/internal/sim"
	"temp/internal/spec"
	"temp/internal/unit"
)

// record is one experiment's entry in the -json output. Seconds is
// wall-clock while the suite's other experiments run concurrently on
// the same cores, so it ranks experiments within one run; for
// revision-to-revision comparison use TotalSeconds, or time one
// experiment in isolation with -exp.
type record struct {
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	Seconds float64 `json:"seconds"`
	Rows    int     `json:"rows"`
	// Backend is the cost backend the run priced through and Strategy
	// the solver strategy in effect (scenario runs) — together they
	// let BENCH_*.json track the fidelity/speed trajectory across
	// revisions.
	Backend  string `json:"backend,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	Headline string `json:"headline,omitempty"`
}

// output is the top-level -json document.
type output struct {
	Quick        bool    `json:"quick"`
	Workers      int     `json:"workers"`
	Backend      string  `json:"backend,omitempty"`
	TotalSeconds float64 `json:"total_seconds"`
	// Memory-tier memo counters: hits served from the in-process
	// cache, misses priced exactly this run. EvalsPerSec is the
	// candidate-throughput headline — exact cost-model computations
	// per wall-clock second.
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	EvalsPerSec float64 `json:"evals_per_sec"`
	// Disk-tier counter: results served from the -memo-dir persistent
	// memo instead of being re-priced (warm starts drive this to the
	// cold run's miss count while misses drop to ~0).
	CacheDiskHits int64 `json:"cache_disk_hits"`
	// Persistent-memo hygiene: records rewritten away by open-time
	// auto-compaction and corrupt tail bytes dropped during recovery
	// (both 0 for a clean or absent memo).
	CacheDiskCompacted    int `json:"cache_disk_compacted,omitempty"`
	CacheDiskDroppedBytes int `json:"cache_disk_dropped_bytes,omitempty"`
	// Batched-pricing telemetry: PriceBatch kernel invocations and the
	// total candidates they priced (BatchedJobs/BatchCalls is the mean
	// batch size).
	BatchCalls  int64 `json:"batch_calls"`
	BatchedJobs int64 `json:"batched_jobs"`
	// LoweringTemplates counts the merged lowering templates the
	// evaluation states compiled: one per state and collective or
	// stream, shared by every candidate that prices on the state.
	LoweringTemplates int `json:"lowering_templates,omitempty"`
	// Distributed-run telemetry: the -distribute worker count and the
	// fabric's per-worker throughput / steal counters. The engine
	// cache counters above aggregate coordinator + workers.
	Distribute  int            `json:"distribute,omitempty"`
	Distrib     *distrib.Stats `json:"distrib,omitempty"`
	Experiments []record       `json:"experiments"`
}

// withDistrib shuts the fabric down and folds its workers' engine
// cache counters into stats and, when workers were asked for, its
// telemetry into the output.
func (o output) withDistrib(f *distrib.Fabric, workers int, stats *engine.Stats) output {
	fs := f.Shutdown()
	t := fs.EngineTotals()
	stats.Hits += t.Hits
	stats.Misses += t.Misses
	stats.DiskHits += t.DiskHits
	stats.BatchCalls += t.BatchCalls
	stats.BatchedJobs += t.BatchedJobs
	if workers > 0 {
		o.Distribute, o.Distrib = workers, &fs
	}
	return o
}

// withEngineStats stamps the evaluation-cache counters — memory hits,
// persistent-memo (disk) hits, exact-pricing misses, batched-kernel
// telemetry — and derives evals_per_sec from the already-set
// TotalSeconds.
func (o output) withEngineStats(s engine.Stats) output {
	o.CacheHits, o.CacheMisses, o.CacheDiskHits = s.Hits, s.Misses, s.DiskHits
	o.CacheDiskCompacted, o.CacheDiskDroppedBytes = s.DiskCompacted, s.DiskDropped
	o.BatchCalls, o.BatchedJobs = s.BatchCalls, s.BatchedJobs
	if o.TotalSeconds > 0 {
		o.EvalsPerSec = float64(s.Misses) / o.TotalSeconds
	}
	return o
}

// withLoweringStats stamps the compiled lowering-template count.
func (o output) withLoweringStats() output {
	o.LoweringTemplates = collective.CacheStats().Templates
	return o
}

// startProfiles arms the pprof flags: a CPU profile covering the whole
// run and a heap profile snapshotted at exit. The returned stop
// function must run before the process exits (it is skipped on error
// exits, which is fine — profiles of failed runs mislead anyway).
func startProfiles(cpuPath, memPath string) (func(), error) {
	stop := func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, err
		}
		stop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if memPath == "" {
		return stop, nil
	}
	cpuStop := stop
	return func() {
		cpuStop()
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tempbench: memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize accurate live-heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tempbench: memprofile:", err)
		}
	}, nil
}

// applyOverrides installs the -model/-wafer/-backend experiment
// overrides (shared by the coordinator's suite path and worker mode).
func applyOverrides(modelNames, waferName, backend string) error {
	if modelNames != "" {
		if err := experiments.UseModels(modelNames); err != nil {
			return err
		}
	}
	if waferName != "" {
		if err := experiments.UseWafer(waferName); err != nil {
			return err
		}
	}
	if backend != "" {
		if err := experiments.UseBackend(backend); err != nil {
			return err
		}
	}
	return nil
}

// backendLabel names the engine's default backend for perf records.
func backendLabel() string {
	if b := engine.DefaultBackend(); b != "" {
		return b
	}
	return "analytic"
}

func toRecord(t *experiments.Table, d time.Duration) record {
	r := record{ID: t.ID, Title: t.Title, Seconds: d.Seconds(), Rows: len(t.Rows), Backend: backendLabel()}
	if len(t.Notes) > 0 {
		r.Headline = t.Notes[0]
	}
	return r
}

// scenarioTable renders a scenario batch in the experiments table
// format, so scenario runs and paper artefacts read alike.
func scenarioTable(results []sim.ScenarioResult) *experiments.Table {
	t := &experiments.Table{
		ID:      "scenarios",
		Title:   "Declarative scenario batch",
		Headers: []string{"scenario", "system", "config", "status", "step(s)", "tput tok/s", "mem/die", "fault-tput", "repair", "solver"},
	}
	for _, r := range results {
		if r.Err != nil {
			t.AddRow(r.Name, "-", "-", "ERROR", "-", "-", "-", "-", "-", "-")
			t.AddNote("%s: %v", r.Name, r.Err)
			continue
		}
		status := "ok"
		if !r.Result.Feasible {
			status = "OOM"
		}
		ft := "-"
		if r.Faulted {
			ft = fmt.Sprintf("%.3f", r.FaultNormTput)
		}
		rp := "-"
		if r.Recovery != nil {
			rp = fmt.Sprintf("%.3f->%.3f", r.Recovery.RepriceNorm, r.Recovery.RepairedNorm)
		}
		sv := "-"
		if r.Solver != nil {
			sv = fmt.Sprintf("%s %.3fms", r.Solver.Strategy, r.Solver.FinalCost*1e3)
		}
		t.AddRow(r.Name, r.Result.System, r.Result.Config.String(), status,
			fmt.Sprintf("%.3f", r.Result.StepTime),
			fmt.Sprintf("%.1f", r.Result.ThroughputTokens),
			unit.Bytes(r.Result.Memory.Total()), ft, rp, sv)
		if r.Campaign != nil {
			worst := r.Campaign.Cells[len(r.Campaign.Cells)-1]
			t.AddNote("%s: campaign %d cells x %d trials; worst cell link %.0f%% core %.0f%%: functional %.2f, mean norm %.3f",
				r.Name, len(r.Campaign.Cells), r.Campaign.Trials,
				worst.LinkRate*100, worst.CoreRate*100, worst.FunctionalRate, worst.MeanNorm)
		}
	}
	return t
}

// campaignSpec is the scenario -fault-campaign runs when no scenario is
// given: TEMP's best mapping of the first -model (default gpt3-6.7b)
// on -wafer (default wsc-4x8), swept over the default grid seeded by
// -seed, or under -quick a reduced one.
func campaignSpec(c *cli.Config, quick bool) spec.ScenarioSpec {
	name := "gpt3-6.7b"
	if c.Model != "" {
		name = strings.TrimSpace(strings.Split(c.Model, ",")[0])
	}
	wafer := c.Wafer
	if wafer == "" {
		wafer = "wsc-4x8"
	}
	cs := &spec.CampaignSpec{Seed: c.Seed}
	if quick {
		cs.LinkRates, cs.CoreRates, cs.Trials = []float64{0, 0.2, 0.4}, []float64{0, 0.1}, 4
	}
	return spec.ScenarioSpec{
		Name: name, Model: spec.ModelRef{Name: name}, Wafer: spec.WaferRef{Name: wafer},
		Fault: &spec.FaultSpec{Campaign: cs},
	}
}

// runScenarios runs a scenario batch, prints it as a table and, with
// jsonPath, writes its perf record.
func runScenarios(c *cli.Config, specs []spec.ScenarioSpec, jsonPath string) error {
	start := time.Now()
	results, err := c.RunSpecs(specs)
	if err != nil {
		return err
	}
	tab := scenarioTable(results)
	tab.Fprint(os.Stdout)
	if jsonPath != "" {
		stats := engine.CountersSnapshot()
		rec := toRecord(tab, time.Since(start))
		// Label the backend and the strategy only when the whole batch
		// shares one (a -backend or -strategy flag is written into
		// every spec): a mixed batch keeps the default backend label
		// and no strategy rather than misattributing timings to one
		// spec's choice.
		backend := ""
		for i, s := range specs {
			key := ""
			if s.Cost != nil {
				key = s.Cost.Key()
			}
			if i > 0 && key != backend {
				backend = ""
				break
			}
			backend = key
		}
		if backend != "" {
			rec.Backend = backend
		}
		for _, r := range results {
			if r.Solver == nil {
				continue
			}
			if rec.Strategy != "" && r.Solver.Strategy != rec.Strategy {
				rec.Strategy = ""
				break
			}
			rec.Strategy = r.Solver.Strategy
		}
		out := output{
			Workers:      c.Workers,
			Backend:      rec.Backend,
			TotalSeconds: time.Since(start).Seconds(),
			Experiments:  []record{rec},
		}
		out = out.withDistrib(c.Fabric(specs), c.FabricWorkers(), &stats)
		if err := cli.WriteJSON(jsonPath, out.withEngineStats(stats).withLoweringStats()); err != nil {
			return err
		}
	}
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("scenario %s: %w", r.Name, r.Err)
		}
	}
	return nil
}

func main() {
	c := cli.Config{Name: "tempbench"}
	c.RegisterBatch(flag.CommandLine)
	exp := flag.String("exp", "", "experiment id (default: run all)")
	quick := flag.Bool("quick", false, "reduced model set for fast runs")
	list := flag.Bool("list", false, "list experiment ids")
	jsonPath := flag.String("json", "", "write per-experiment timings and headline metrics to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	flag.StringVar(&c.Listen, "listen", "", "accept -distribute workers over TCP on this address instead of spawning them")
	flag.StringVar(&c.Connect, "connect", "", "worker: dial the coordinator's -listen address and serve shards")
	flag.IntVar(&c.Redial, "redial", 10, "-connect: re-dial attempts after connection loss with exponential backoff (0 = single attempt)")
	chaosSpec := flag.String("chaos", "", "deterministic chaos injection on fabric links: \"seed,rate\" spreads rate across delay/drop/corrupt/truncate/stall/kill (results stay bit-identical)")
	flag.BoolVar(&c.SyncMemo, "sync-memo", false, "ship the warm disk-memo to attaching workers over the wire (shared-nothing workers)")
	flag.DurationVar(&c.Heartbeat, "heartbeat", 0, "fabric liveness ping cadence (0 = default 500ms); 3 missed beats declare a worker dead")
	flag.Parse()
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		c.Fail(err)
	}
	defer stopProfiles()
	// Workers replicate the coordinator's -model/-wafer/-backend
	// experiment overrides before serving shards.
	c.WorkerInit = func() error { return applyOverrides(c.Model, c.Wafer, c.Backend) }
	defer c.Close()
	if c.Setup() {
		return
	}
	if *chaosSpec != "" {
		if c.Chaos, err = distrib.ParseChaos(*chaosSpec); err != nil {
			c.Fail(err)
		}
	}

	if c.Scenario != "" || c.Scenarios != "" || c.FaultCampaign != "" {
		// Without a scenario, -fault-campaign runs the flag-built
		// campaignSpec: the CI survivability artifact path.
		specs, err := c.Specs(campaignSpec(&c, *quick))
		if err == nil {
			err = runScenarios(&c, specs, *jsonPath)
		}
		if err != nil {
			c.Fail(err)
		}
		return
	}

	if err := c.RejectStageFlags(); err != nil {
		c.Fail(err)
	}
	if err := applyOverrides(c.Model, c.Wafer, c.Backend); err != nil {
		c.Fail(err)
	}
	if *list {
		for _, r := range experiments.Runners() {
			fmt.Println(r.ID)
		}
		return
	}
	fab := c.Fabric(nil)
	start := time.Now()
	var tabs []*experiments.Table
	var durs []time.Duration
	if *exp != "" {
		tab, err := experiments.ByIDOn(fab, *exp, *quick)
		if err != nil {
			c.Fail(err)
		}
		tabs, durs = []*experiments.Table{tab}, []time.Duration{time.Since(start)}
	} else {
		tabs, durs, err = experiments.All(fab, *quick)
	}
	total := time.Since(start)
	for _, t := range tabs {
		t.Fprint(os.Stdout)
	}
	if *jsonPath != "" {
		stats := engine.CountersSnapshot()
		out := output{
			Quick: *quick, Workers: engine.Workers(), Backend: backendLabel(),
			TotalSeconds: total.Seconds(),
		}
		for i, t := range tabs {
			out.Experiments = append(out.Experiments, toRecord(t, durs[i]))
		}
		out = out.withDistrib(fab, c.FabricWorkers(), &stats)
		if werr := cli.WriteJSON(*jsonPath, out.withEngineStats(stats).withLoweringStats()); werr != nil {
			c.Fail(werr)
		}
	}
	if err != nil {
		c.Fail(err)
	}
}
