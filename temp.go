// Package temp is the public API of the TEMP reproduction: a
// memory-efficient, physical-aware tensor partition-mapping framework
// for LLM training on wafer-scale chips (HPCA 2026).
//
// The package re-exports the stable surface of the internal
// implementation:
//
//   - hardware models (wafer, die, D2D link, GPU cluster reference),
//   - the LLM model zoo and transformer block graphs,
//   - hybrid parallel configurations (DP/TP/SP/CP/TATP) and wafer
//     placements,
//   - the wafer-centric cost model that evaluates one training step,
//   - the baseline systems (Megatron-1, MeSP, FSDP × SMap/GMap),
//   - the dual-level wafer solver (chain DP + genetic refinement),
//   - fault injection and the experiment runners that regenerate
//     every table and figure of the paper's evaluation,
//   - the declarative scenario layer: JSON specs for wafers, models,
//     systems and scenarios, name-keyed registries, and batch
//     scenario evaluation over the concurrent engine.
//
// Quickstart:
//
//	w := temp.EvaluationWafer()
//	m := temp.GPT3_6_7B()
//	res, err := temp.BestTEMP(m, w)
//	fmt.Println(res.Config, res.StepTime, res.ThroughputTokens)
package temp

import (
	"temp/internal/baselines"
	"temp/internal/cost"
	"temp/internal/distrib"
	"temp/internal/experiments"
	"temp/internal/fault"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/sim"
	"temp/internal/solver"
	"temp/internal/spec"
)

// Hardware configurations (Table I, §VIII-A).
type (
	// Wafer is a wafer-scale chip configuration.
	Wafer = hw.Wafer
	// Die is one compute die.
	Die = hw.Die
	// Cluster is the switched GPU reference system.
	Cluster = hw.Cluster
)

// Wafer constructors.
var (
	// EvaluationWafer is the 4×8-die wafer of §VIII-A.
	EvaluationWafer = hw.EvaluationWafer
	// ReferenceWafer is the 6×8-die floorplan of Fig. 3.
	ReferenceWafer = hw.ReferenceWafer
	// WaferWithGrid resizes the evaluation wafer.
	WaferWithGrid = hw.WaferWithGrid
	// CustomWafer builds a wafer from arbitrary die/link components.
	CustomWafer = hw.Custom
	// A100Cluster is the 32-GPU comparison system of Fig. 15.
	A100Cluster = hw.A100Cluster
)

// Model is an LLM workload description (Table II).
type Model = model.Config

// Model zoo.
var (
	GPT3_6_7B   = model.GPT3_6_7B
	Llama2_7B   = model.Llama2_7B
	Llama3_70B  = model.Llama3_70B
	GPT3_76B    = model.GPT3_76B
	GPT3_175B   = model.GPT3_175B
	OPT_175B    = model.OPT_175B
	Grok1_341B  = model.Grok1_341B
	Llama3_405B = model.Llama3_405B
	GPT3_504B   = model.GPT3_504B
	// EvaluationModels lists the six Table II models.
	EvaluationModels = model.EvaluationModels
	// BlockGraph builds the Fig. 12 transformer block.
	BlockGraph = model.BlockGraph
)

// ParallelConfig is a hybrid parallel configuration
// (DP/TP/SP/CP/TATP degrees plus PP across wafers).
type ParallelConfig = parallel.Config

// Options configures a cost-model evaluation; Breakdown is its
// result.
type (
	Options   = cost.Options
	Breakdown = cost.Breakdown
	Engine    = cost.Engine
)

// Multi-fidelity cost backends: every tier prices whole steps (Price)
// and single operators (the solver fast path) behind one interface.
type (
	// CostBackend is one fidelity tier (analytic | replay | surrogate).
	CostBackend = cost.Backend
	// OperatorCostModel is a backend's per-operator fast path; it
	// satisfies the solver's CostModel.
	OperatorCostModel = cost.OperatorModel
	// CostSpec serializes a backend choice (name + surrogate seed).
	CostSpec = spec.CostSpec
)

// Cost-backend registry entry points.
var (
	// NewCostBackend resolves a backend key ("analytic", "replay",
	// "surrogate@seed=7") to a cached instance.
	NewCostBackend = cost.NewBackend
	// RegisterCostBackend adds a fidelity tier to the registry.
	RegisterCostBackend = cost.RegisterBackend
	// CostBackendNames lists registered tiers.
	CostBackendNames = cost.BackendNames
	// CostBackendKey builds the canonical key threaded through engine
	// jobs and scenario specs.
	CostBackendKey = cost.BackendKey
)

// Engines and conventions.
const (
	SMap       = cost.SMap
	GMap       = cost.GMap
	TCMEEngine = cost.TCMEEngine
)

// Evaluation entry points.
var (
	// Evaluate prices one training step of a model on a wafer under
	// a configuration.
	Evaluate = cost.Evaluate
	// EvaluateCluster prices the GPU reference system.
	EvaluateCluster = cost.EvaluateCluster
	// TEMPOptions are the conventions TEMP itself runs with.
	TEMPOptions = cost.TEMPOptions
)

// System is an evaluated training system; Result pairs its best
// configuration with the breakdown.
type (
	System = baselines.System
	Result = baselines.Result
)

// Baseline systems and sweeps.
var (
	Megatron1 = baselines.Megatron1
	MeSP      = baselines.MeSP
	FSDP      = baselines.FSDP
	// TEMPSystem is the full framework (TCME engine + TATP space).
	TEMPSystem = baselines.TEMP
	// Best sweeps a system's configuration space for its fastest
	// feasible configuration.
	Best = baselines.Best
	// CompareAll runs the Fig. 13 comparison (A–F + TEMP).
	CompareAll = sim.CompareAll
	// Ablation runs the Fig. 16 ladder.
	Ablation = sim.Ablation
	// MultiWafer evaluates pipeline scaling across wafers.
	MultiWafer = sim.MultiWafer
)

// BestTEMP sweeps TEMP's configuration space on a wafer.
func BestTEMP(m Model, w Wafer) (Result, error) {
	return baselines.Best(baselines.TEMP(), m, w)
}

// Solver surface (DLWS, §VII): the pluggable search-strategy
// framework over the shared problem/evaluator core.
type (
	// CostModel prices operators for the solver.
	CostModel = solver.CostModel
	// AnalyticCostModel is the closed-form wafer cost model.
	AnalyticCostModel = solver.Analytic
	// DLSOptions tunes the dual-level search.
	DLSOptions = solver.DLSOptions
	// SearchStats reports solver effort and quality.
	SearchStats = solver.Stats
	// SearchStrategy is one pluggable search algorithm; SearchProblem
	// and SearchBudget are its Solve inputs. SearchProblem.Screen
	// holds an optional cheap screening model for the multifid
	// strategy (surrogate-screened, exact-verified search).
	SearchStrategy = solver.Strategy
	SearchProblem  = solver.Problem
	SearchBudget   = solver.Budget
	// SearchCheckpoint is a periodic best-so-far snapshot.
	SearchCheckpoint = solver.Checkpoint
	// StrategyParams are named strategy tuning knobs.
	StrategyParams = solver.Params
	// SolverSpec serializes a strategy choice (name + params +
	// budget) like every other spec.
	SolverSpec = spec.SolverSpec
)

// Solver entry points.
var (
	// DLS runs the dual-level search (chain DP + GA).
	DLS = solver.DLS
	// ExhaustiveSearch is the ILP-stand-in joint search.
	ExhaustiveSearch = solver.Exhaustive
	// NewSearchStrategy resolves a registered strategy by name
	// (ga | anneal | hillclimb | dp | portfolio | multifid).
	NewSearchStrategy = solver.NewStrategy
	// SolverBackendModel resolves a cost backend's operator model by
	// key — the bridge between the backend registry and the solver.
	SolverBackendModel = solver.BackendModel
	// RegisterSearchStrategy adds a strategy to the registry.
	RegisterSearchStrategy = solver.RegisterStrategy
	// SearchStrategyNames lists registered strategies.
	SearchStrategyNames = solver.StrategyNames
)

// Fault tolerance surface (§VIII-F): injection/outcome plus the
// resilience layer — degradation-aware repair, deterministic fault
// campaigns, worst-case mask search, and the robust solver objective.
type (
	FaultInjection = fault.Injection
	FaultOutcome   = fault.Outcome
	// FaultRecovery reports a repair run: re-price-only vs repaired
	// (vs optional cold re-solve) normalized throughput.
	FaultRecovery = fault.Recovery
	// FaultRepairOptions tunes the repair search.
	FaultRepairOptions = fault.RepairOptions
	// FaultCampaign is a deterministic Monte Carlo survivability grid.
	FaultCampaign = fault.Campaign
	// FaultCampaignResult is a campaign's JSON-serializable outcome.
	FaultCampaignResult = fault.CampaignResult
	// FaultMaskSearch finds the most damaging K-link/K-die mask.
	FaultMaskSearch = fault.MaskSearch
	// FaultWorstCase is a mask search's outcome.
	FaultWorstCase = fault.WorstCase
	// RobustCostModel averages a cost model over a fault-mask
	// ensemble — the robust solver objective.
	RobustCostModel = fault.RobustModel
	// RepairSpec/CampaignSpec/RobustSpec serialize the resilience
	// stages like every other spec.
	RepairSpec   = spec.RepairSpec
	CampaignSpec = spec.CampaignSpec
	RobustSpec   = spec.RobustSpec
)

// Fault entry points.
var (
	EvaluateWithFaults        = fault.Evaluate
	FaultNormalizedThroughput = fault.NormalizedThroughput
	// RepairFaults warm-starts a repair search on a degraded topology
	// at a surviving core capacity in (0, 1].
	RepairFaults = fault.Repair
	// RepairInjectedFaults draws a seeded mask, then repairs it.
	RepairInjectedFaults = fault.RepairInjected
	// NewRobustCostModel builds the robust solver objective.
	NewRobustCostModel = fault.NewRobustModel
	// FaultRandomMaskNorm is the random-sampling baseline a worst-case
	// mask search is compared against.
	FaultRandomMaskNorm = fault.RandomMaskNorm
)

// Declarative scenario layer (internal/spec): serializable JSON specs
// for wafers, models, systems and whole evaluation scenarios, plus the
// name-keyed registries the CLIs resolve against.
type (
	WaferSpec    = spec.WaferSpec
	DieSpec      = spec.DieSpec
	LinkSpec     = spec.LinkSpec
	ModelSpec    = spec.ModelSpec
	SystemSpec   = spec.SystemSpec
	ConfigSpec   = spec.ConfigSpec
	ScenarioSpec = spec.ScenarioSpec
	// Scenario is a resolved, validated ScenarioSpec.
	Scenario = spec.Scenario
	// ScenarioResult pairs one scenario with its evaluation outcome.
	ScenarioResult = sim.ScenarioResult
	// SystemEnvelope caps a system's swept configuration space.
	SystemEnvelope = baselines.Envelope
)

// Scenario entry points and registries.
var (
	// LoadScenario / LoadScenarioDir read scenario JSON files.
	LoadScenario    = spec.LoadScenario
	LoadScenarioDir = spec.LoadScenarioDir
	// ParseScenario decodes one scenario spec from JSON bytes.
	ParseScenario = spec.ParseScenario
	// RunScenario evaluates one resolved scenario; RunScenarios fans a
	// batch out over the evaluation engine in input order.
	RunScenario  = sim.RunScenario
	RunScenarios = sim.RunScenarios
	// RunScenarioSpecs resolves and runs serialized specs across a
	// fabric's workers or (nil fabric) in-process. An override is an
	// edit of a spec's solver or cost block.
	RunScenarioSpecs = sim.RunScenarioSpecs
	// RegisteredWafers/Models/Systems are the name-keyed registries,
	// pre-populated with every paper constructor.
	RegisteredWafers  = spec.Wafers
	RegisteredModels  = spec.Models
	RegisteredSystems = spec.Systems
	// LookupWafer/Model/System resolve registry names.
	LookupWafer  = spec.LookupWafer
	LookupModel  = spec.LookupModel
	LookupSystem = spec.LookupSystem
	// SystemFromScheme builds a system from scheme × engine ×
	// envelope.
	SystemFromScheme = baselines.FromScheme
	// WaferSpecOf/ModelSpecOf/SystemSpecOf are the ToSpec round-trips.
	WaferSpecOf  = spec.WaferSpecOf
	ModelSpecOf  = spec.ModelSpecOf
	SystemSpecOf = spec.SystemSpecOf
)

// ExperimentTable is a regenerated paper artefact.
type ExperimentTable = experiments.Table

// Experiment runners.
var (
	// RunExperiment regenerates one table/figure by id (see
	// DESIGN.md's per-experiment index).
	RunExperiment = experiments.ByID
	// RunAllExperiments regenerates the full evaluation, across a
	// fabric's workers or (nil fabric) in-process.
	RunAllExperiments = experiments.All
)

// Distributed sweep fabric: a coordinator that shards engine-shaped
// workloads (scenario batches, experiment suites, fault campaigns)
// across worker processes with work stealing, bounded requeue on
// worker loss, and deterministic index-addressed merges. A nil
// *Fabric is valid and runs everything in-process.
type (
	// Fabric is the coordinator handle.
	Fabric = distrib.Fabric
	// FabricOptions configures worker spawning and sharding.
	FabricOptions = distrib.Options
	// FabricStats summarizes a fabric's lifetime (per-worker
	// throughput, steals, requeues, heartbeat liveness, cache
	// counters).
	FabricStats = distrib.Stats
	// ChaosConfig is the deterministic fault-injection campaign a
	// fabric's transports can run under (delay/drop/corrupt/truncate/
	// stall/kill at seeded rates); merged results stay bit-identical.
	ChaosConfig = distrib.ChaosConfig
	// RedialOptions configures a TCP worker's reconnect backoff.
	RedialOptions = distrib.RedialOptions
	// DistribSpec is the optional "distrib" block of a scenario spec.
	DistribSpec = spec.DistribSpec
)

// Fabric entry points.
var (
	// NewFabric spawns (or accepts, with Options.Listen) the workers.
	NewFabric = distrib.New
	// ServeFabricWorker turns the current process into a stdio worker.
	ServeFabricWorker = distrib.ServeStdio
	// ConnectFabricWorker dials a coordinator and serves over TCP.
	ConnectFabricWorker = distrib.ConnectAndServe
	// DialFabricWorker is ConnectFabricWorker with re-dial on
	// connection loss (exponential backoff, deterministic jitter).
	DialFabricWorker = distrib.DialAndServe
	// ParseChaos parses a "seed,rate" chaos campaign spec.
	ParseChaos = distrib.ParseChaos
	// RegisterFabricKind adds a task kind to the worker registry.
	RegisterFabricKind = distrib.RegisterKind
	// RunCampaignOn distributes a fault campaign's grid cells.
	RunCampaignOn = fault.Campaign.RunOn
	// RunExperimentOn regenerates one experiment through a fabric.
	RunExperimentOn = experiments.ByIDOn
)
