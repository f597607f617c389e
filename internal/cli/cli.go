// Package cli is the harness the four commands share: the flags they
// all declare, the start-up and teardown order, the one fabric policy
// and the one JSON artifact writer. A command registers its flags on a
// Config, calls Setup, and reaches its fabric only through Fabric. A
// nil fabric is the in-process path, so commands thread it through
// without branching on it.
package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"temp/internal/cost"
	"temp/internal/distrib"
	"temp/internal/engine"
	"temp/internal/fault"
	"temp/internal/sim"
	"temp/internal/solver"
	"temp/internal/spec"
)

// Config is one command's run configuration.
type Config struct {
	// Name prefixes error messages ("tempsim: ...").
	Name string

	// Flags every command declares (Register).
	Workers    int
	MemoDir    string
	Distribute int
	WorkerMode bool

	// Flags the three batch commands declare (RegisterBatch). Model
	// and Strategy hold the command's defaults when RegisterBatch runs.
	Model, Wafer                                         string
	Scenario, Scenarios                                  string
	Strategy, Budget                                     string
	Seed                                                 int64
	Backend                                              string
	Repair                                               bool
	FaultCampaign                                        string
	ListModels, ListWafers, ListStrategies, ListBackends bool

	// Fabric and worker knobs a command sets from flags of its own:
	// tempbench's -listen/-connect/-redial/-chaos/-heartbeat and the
	// -sync-memo of tempbench and tempserve.
	Listen    string
	Connect   string
	Redial    int
	Chaos     *distrib.ChaosConfig
	SyncMemo  bool
	Heartbeat time.Duration
	// WorkerInit runs in worker mode before serving; tempbench applies
	// its replicated -model/-wafer/-backend experiment overrides here.
	WorkerInit func() error
	// RepairFault is the fault stage -repair writes into a spec that
	// has none (tempsolve's -fault-link/-fault-core/-fault-seed
	// injection); when nil, -repair rides existing fault stages only.
	RepairFault *spec.FaultSpec

	// Ctx ends at the first SIGINT/SIGTERM after Setup, or at Close.
	Ctx context.Context

	stop       context.CancelFunc
	memo       *engine.DiskMemo
	fab        *distrib.Fabric
	fabBuilt   bool
	fabWorkers int
}

// exit is os.Exit, swapped out by tests.
var exit = os.Exit

// Register declares the four flags every command shares.
func (c *Config) Register(fs *flag.FlagSet) {
	fs.IntVar(&c.Workers, "workers", runtime.GOMAXPROCS(0), "evaluation worker-pool size")
	fs.StringVar(&c.MemoDir, "memo-dir", os.Getenv("TEMPMEMO"),
		"persist priced results in this directory and warm-start from them (default $TEMPMEMO)")
	fs.IntVar(&c.Distribute, "distribute", 0, "spread the run across N worker subprocesses (0 = in-process)")
	fs.BoolVar(&c.WorkerMode, "worker-mode", false, "internal: serve shards from a coordinator over stdio")
}

// RegisterBatch declares the shared flags plus the fourteen the batch
// commands (tempsim, tempsolve, tempbench) share.
func (c *Config) RegisterBatch(fs *flag.FlagSet) {
	c.Register(fs)
	fs.StringVar(&c.Model, "model", c.Model, "registered model name (-list-models); tempbench takes a comma-separated list")
	fs.StringVar(&c.Wafer, "wafer", "", "registered wafer name (-list-wafers)")
	fs.StringVar(&c.Scenario, "scenario", "", "run one scenario JSON file")
	fs.StringVar(&c.Scenarios, "scenarios", "", "run every *.json scenario in a directory")
	fs.StringVar(&c.Strategy, "strategy", c.Strategy, "search strategy (-list-strategies; empty means ga); adds or replaces a scenario's solver stage")
	fs.StringVar(&c.Budget, "budget", "", "search budget: eval count, duration, or both (\"20000,30s\")")
	fs.Int64Var(&c.Seed, "seed", 7, "search and surrogate-training randomness seed")
	fs.StringVar(&c.Backend, "backend", "", "cost backend (-list-backends); accepts name or name@seed=N")
	fs.BoolVar(&c.Repair, "repair", false, "repair the mapping after a seeded fault injection (scenarios: rides each fault stage)")
	fs.StringVar(&c.FaultCampaign, "fault-campaign", "", "run a deterministic fault campaign and write the survivability JSON array to this file")
	fs.BoolVar(&c.ListModels, "list-models", false, "list registered model names")
	fs.BoolVar(&c.ListWafers, "list-wafers", false, "list registered wafer names")
	fs.BoolVar(&c.ListStrategies, "list-strategies", false, "list registered search strategies")
	fs.BoolVar(&c.ListBackends, "list-backends", false, "list registered cost backends")
}

// Setup runs the shared start-up in its one order: the engine's worker
// bound, the disk memo, the first-signal-cancel context, worker mode,
// then the registry listings. It reports true when the process has
// done its job (served as a worker or printed a listing), in which
// case the command returns. Failures exit through Fail.
func (c *Config) Setup() bool {
	engine.SetWorkers(c.Workers)
	if c.MemoDir != "" {
		dm, err := engine.AttachDiskMemo(c.MemoDir)
		if err != nil {
			c.Fail(err)
			return true
		}
		c.memo = dm
	}
	// The first signal cancels Ctx (solves stop at their next budget
	// check, distributed shards are cancelled); releasing the handler
	// then restores the default, so a second signal kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	c.Ctx, c.stop = ctx, stop
	go func() {
		<-ctx.Done()
		stop()
	}()
	if c.WorkerMode || c.Connect != "" {
		if err := c.serveWorker(); err != nil {
			c.Fail(fmt.Errorf("worker: %w", err))
		}
		return true
	}
	return c.list()
}

// serveWorker is the worker side of the fabric: apply the replicated
// overrides, then serve shards until the coordinator says done.
func (c *Config) serveWorker() error {
	if c.WorkerInit != nil {
		if err := c.WorkerInit(); err != nil {
			return err
		}
	}
	switch {
	case c.Connect != "" && c.Redial > 0:
		return distrib.DialAndServe(c.Connect, distrib.RedialOptions{Attempts: c.Redial})
	case c.Connect != "":
		return distrib.ConnectAndServe(c.Connect)
	}
	return distrib.ServeStdio()
}

// list prints the first registry a -list-* flag asks for.
func (c *Config) list() bool {
	var names []string
	switch {
	case c.ListBackends:
		names = cost.BackendNames()
	case c.ListModels:
		names = spec.Models.Names()
	case c.ListWafers:
		names = spec.Wafers.Names()
	case c.ListStrategies:
		names = solver.StrategyNames()
	default:
		return false
	}
	for _, n := range names {
		fmt.Println(n)
	}
	return true
}

// SolverSpec is the validated solver block -strategy, -budget and -seed
// describe; nil when neither -strategy nor -budget is set. An empty
// -strategy is the spec's default, ga.
func (c *Config) SolverSpec() (*spec.SolverSpec, error) {
	if c.Strategy == "" && c.Budget == "" {
		return nil, nil
	}
	b, err := spec.ParseBudget(c.Budget)
	if err != nil {
		return nil, err
	}
	ss := &spec.SolverSpec{Strategy: c.Strategy, Seed: c.Seed, Budget: &b}
	if err := ss.Validate(); err != nil {
		return nil, err
	}
	return ss, nil
}

// CostSpec is the validated cost block -backend describes, seeded by
// -seed; nil when -backend is unset.
func (c *Config) CostSpec() (*spec.CostSpec, error) {
	if c.Backend == "" {
		return nil, nil
	}
	cs := &spec.CostSpec{Backend: c.Backend, Seed: c.Seed}
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	return cs, nil
}

// RejectStageFlags fails a run that builds no scenario but was given
// -strategy, -budget or -repair, which only a scenario's stages read.
func (c *Config) RejectStageFlags() error {
	if c.Strategy != "" || c.Budget != "" || c.Repair {
		return errors.New("-strategy, -budget and -repair need a scenario (-scenario/-scenarios)")
	}
	return nil
}

// Specs loads the -scenario file or the -scenarios directory, or takes
// the command's flag-built fallback batch when neither is set, and
// writes the flags into every spec. -strategy or -budget replaces the
// solver block with SolverSpec, and -backend replaces the cost block
// with CostSpec; both blocks are validated first, so a bad flag fails
// before anything is loaded or priced. -repair adds a repair stage
// seeded by -seed to each fault stage, writing RepairFault where a
// spec has none; -fault-campaign adds a default-grid campaign,
// creating an empty fault stage where there is none (a campaign needs
// no injection rates).
func (c *Config) Specs(fallback ...spec.ScenarioSpec) ([]spec.ScenarioSpec, error) {
	sol, err := c.SolverSpec()
	if err != nil {
		return nil, err
	}
	cst, err := c.CostSpec()
	if err != nil {
		return nil, err
	}
	var specs []spec.ScenarioSpec
	switch {
	case c.Scenario != "":
		ss, err := spec.LoadScenario(c.Scenario)
		if err != nil {
			return nil, err
		}
		specs = []spec.ScenarioSpec{ss}
	case c.Scenarios != "":
		if specs, err = spec.LoadScenarioDir(c.Scenarios); err != nil {
			return nil, err
		}
	default:
		specs = append(specs, fallback...)
	}
	for i := range specs {
		if sol != nil {
			specs[i].Solver = sol
		}
		if cst != nil {
			specs[i].Cost = cst
		}
		f := specs[i].Fault
		if c.Repair && f == nil && c.RepairFault != nil {
			rf := *c.RepairFault
			f = &rf
			specs[i].Fault = f
		}
		if c.Repair && f != nil && f.Repair == nil {
			f.Repair = &spec.RepairSpec{Seed: c.Seed}
		}
		if c.FaultCampaign != "" {
			if f == nil {
				f = &spec.FaultSpec{}
				specs[i].Fault = f
			}
			if f.Campaign == nil {
				f.Campaign = &spec.CampaignSpec{}
			}
		}
	}
	return specs, nil
}

// RunSpecs runs a loaded scenario batch: the fabric per the policy,
// results in spec order, and the -fault-campaign artifact with one
// entry per campaign-staged scenario.
func (c *Config) RunSpecs(specs []spec.ScenarioSpec) ([]sim.ScenarioResult, error) {
	results := sim.RunScenarioSpecs(c.Ctx, c.Fabric(specs), specs)
	if c.FaultCampaign != "" {
		var crs []fault.CampaignResult
		for _, r := range results {
			if r.Campaign != nil {
				crs = append(crs, *r.Campaign)
			}
		}
		if err := WriteJSON(c.FaultCampaign, crs); err != nil {
			return results, err
		}
	}
	return results, nil
}

// fabricOptions resolves the one fabric policy: -distribute wins over
// the first spec's distrib block, which wins over in-process (zero
// workers); command flags win over spec fields.
func (c *Config) fabricOptions(specs []spec.ScenarioSpec) distrib.Options {
	o := distrib.Options{
		Workers: c.Distribute, Listen: c.Listen, Chaos: c.Chaos,
		SyncMemo: c.SyncMemo, Heartbeat: c.Heartbeat,
	}
	for _, s := range specs {
		d := s.Distrib
		if d == nil {
			continue
		}
		if o.Workers == 0 {
			o.Workers = d.Workers
		}
		o.ShardSize, o.Retries, o.MissedBeats = d.ShardSize, d.Retries, d.MissedBeats
		if o.Heartbeat == 0 {
			o.Heartbeat = time.Duration(d.HeartbeatMS) * time.Millisecond
		}
		o.SyncMemo = o.SyncMemo || d.SyncMemo
		break
	}
	return o
}

// workerArgv is how a coordinator re-invokes its own binary as a
// worker: -worker-mode, the engine bound, the shared memo directory
// (left off under memo sync, so workers report no memo and receive
// the coordinator's warm segment instead), and the process-level
// -model/-wafer/-backend overrides a worker replicates.
func (c *Config) workerArgv(exe string, syncMemo bool) []string {
	argv := []string{exe, "-worker-mode", "-workers", strconv.Itoa(c.Workers)}
	if c.MemoDir != "" && !syncMemo {
		argv = append(argv, "-memo-dir", c.MemoDir)
	}
	for _, kv := range [][2]string{{"-model", c.Model}, {"-wafer", c.Wafer}, {"-backend", c.Backend}} {
		if kv[1] != "" {
			argv = append(argv, kv[0], kv[1])
		}
	}
	return argv
}

// Fabric returns the run's fabric, building it on the first call from
// the policy in fabricOptions: nil (in-process) when no workers are
// asked for. Spawn and attach failures degrade with a warning rather
// than abort.
func (c *Config) Fabric(specs []spec.ScenarioSpec) *distrib.Fabric {
	if c.fabBuilt {
		return c.fab
	}
	c.fabBuilt = true
	o := c.fabricOptions(specs)
	c.fabWorkers = o.Workers
	if o.Workers <= 0 && o.Listen == "" {
		return nil
	}
	if o.Listen == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: distrib: %v\n", c.Name, err)
			return nil
		}
		o.Command = c.workerArgv(exe, o.SyncMemo)
	}
	f, err := distrib.New(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: distrib: %v\n", c.Name, err)
	}
	c.fab = f
	return f
}

// FabricWorkers is the worker count the fabric policy resolved (0 when
// in-process or before Fabric runs).
func (c *Config) FabricWorkers() int { return c.fabWorkers }

// Close shuts the fabric down (collecting its workers' engine
// counters), detaches and closes the disk memo, and releases the
// signal handler. Idempotent.
func (c *Config) Close() {
	c.fab.Shutdown()
	if c.memo != nil {
		engine.Default().SetDiskMemo(nil)
		c.memo.Close()
		c.memo = nil
	}
	if c.stop != nil {
		c.stop()
	}
}

// Exit closes the run and exits with code.
func (c *Config) Exit(code int) {
	c.Close()
	exit(code)
}

// Fail reports err under the command's name and exits 1 through Close.
func (c *Config) Fail(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", c.Name, err)
	c.Exit(1)
}

// WriteJSON writes v as an indented JSON artifact.
func WriteJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
