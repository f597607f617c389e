package cost

import (
	"fmt"
	"sync"

	"temp/internal/collective"
	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/stream"
	"temp/internal/tcme"
	"temp/internal/unit"
)

// gemmHalfEff is the per-issue FLOP count at which a PE array reaches
// half of peak (tile-granularity efficiency model: smaller shards
// underutilize the array). 1 GFLOP ≈ a 512×1024×1024 tile.
const gemmHalfEff = 1e9

// streamRoundSync is the fixed per-round cost of one TATP stream
// round beyond serialization: DMA descriptor setup, router
// arbitration and the barrier that keeps sub-tensor relays aligned
// with compute rounds. It is what makes very fine-grained streaming
// (large N) lose throughput (Fig. 9's decline past the sweet spot).
const streamRoundSync = 2 * unit.Microsecond

// idlePowerFrac is the fraction of busy compute power a die still
// draws while stalled on communication (clock-gated PE arrays,
// SRAM retention, NoC). Exposed communication therefore wastes
// energy — the reason TEMP's shorter steps also win on power
// efficiency (Fig. 14).
const idlePowerFrac = 0.35

// Breakdown is the full result of evaluating one training step.
type Breakdown struct {
	Model  string
	Config parallel.Config
	Engine Engine

	// StepTime is the end-to-end latency of one global-batch step.
	StepTime float64
	// ComputeTime is the compute component (per stage, summed over
	// micro-steps).
	ComputeTime float64
	// StreamTime is the exposed TATP streaming time (beyond what
	// overlaps with compute).
	StreamTime float64
	// CollectiveTime is the exposed collective communication.
	CollectiveTime float64
	// P2PTime is inter-stage (pipeline) transfer time.
	P2PTime float64
	// BubbleTime is the pipeline-bubble component.
	BubbleTime float64
	// OptimizerTime is the memory-bound parameter update.
	OptimizerTime float64

	Memory MemoryBreakdown

	EnergyCompute float64
	EnergyComm    float64
	EnergyDRAM    float64

	// ThroughputTokens is tokens/second for the whole system.
	ThroughputTokens float64
	// Power is the average system power in watts.
	Power float64
	// PowerEfficiency is throughput per watt.
	PowerEfficiency float64
	// BWUtilization is the fraction of link·seconds carrying data.
	BWUtilization float64

	// TCME aggregates the optimizer's work over every communication
	// phase it optimized: all of them under Engine==TCMEEngine, and
	// under any engine on the replay tier. Its Phase is empty.
	TCME tcme.Result
}

// OOM reports whether the configuration exceeds per-die memory.
func (b Breakdown) OOM() bool { return b.Memory.OOM() }

// CommTime returns all exposed communication.
func (b Breakdown) CommTime() float64 {
	return b.StreamTime + b.CollectiveTime + b.P2PTime
}

// String summarises the breakdown.
func (b Breakdown) String() string {
	return fmt.Sprintf("%s %s [%s]: step=%s comp=%s stream=%s coll=%s bubble=%s mem=%s/%s tput=%.1f tok/s eff=%.3f tok/s/W",
		b.Model, b.Config, b.Engine, unit.Seconds(b.StepTime), unit.Seconds(b.ComputeTime),
		unit.Seconds(b.StreamTime), unit.Seconds(b.CollectiveTime), unit.Seconds(b.BubbleTime),
		unit.Bytes(b.Memory.Total()), unit.Bytes(b.Memory.Capacity), b.ThroughputTokens, b.PowerEfficiency)
}

// evalState is the lowering state an evaluation shares with every
// other evaluation of the same (topology, configuration, placement
// family): the TATP stream orchestrations and the per-strategy
// communication orders distilled from the placement. Building it is
// the expensive structural part of an evaluation (placement tiling,
// Hamiltonian ring construction, nearest-neighbor ordering), so
// stateFor memoizes it on the interned topology and the engine's
// whole worker pool shares one instance per key across candidates.
// The placement itself is not retained — the evaluator only consumes
// the distilled orders/orchestrations.
type evalState struct {
	err error

	// orchs holds the stream orchestration of each TATP group
	// (alive-filtered), in group order.
	orchs []*stream.Orchestration
	// orders[s] holds the alive-filtered communication order of every
	// group of strategy s whose surviving size exceeds one, in group
	// order: logical rank order for SMap/GMap, the physical
	// ring/snake/nearest-neighbor order for the TCME engine.
	orders [parallel.NumStrategies][][]mesh.DieID

	// Lazily compiled merged lowering templates (all TATP orchs merged;
	// each strategy × ring-collective kind merged over its groups) and
	// their TCME route plans, shared by every evaluation of this state.
	// This is the one memo of lowerings: collective and stream lower
	// afresh on every call, and collective.Compile runs only here.
	mu     sync.Mutex
	stream *mesh.PhaseTemplate
	coll   map[collKey]collTemplate
	plans  map[planKey]*routePlan
}

// Ring-collective kinds the evaluator lowers through merged templates.
const (
	collAllReduce     = 'A'
	collAllGather     = 'G'
	collReduceScatter = 'R'
)

type collKey struct {
	s    parallel.Strategy
	kind byte
}

// collTemplate is a merged-over-groups lowering: valid (tmpl non-nil)
// only when every group shares one size n, because all-reduce and
// reduce-scatter chunk as bytes/n — unequal survivor groups (fault
// scenarios) take the per-group slow path instead.
type collTemplate struct {
	tmpl *mesh.PhaseTemplate
	n    int
}

// streamTemplate compiles the merged TATP stream structure (step k of
// every orchestration aligned into one phase by collective.Merge) once
// per state.
func (st *evalState) streamTemplate() *mesh.PhaseTemplate {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.stream == nil {
		seqs := make([][]mesh.Phase, len(st.orchs))
		for i, orch := range st.orchs {
			seqs[i] = orch.Phases(1)
		}
		st.stream = collective.Compile(seqs...)
	}
	return st.stream
}

// collTemplateFor compiles the merged lowering of one (strategy,
// kind) pair once per state. Lowering with per-flow unit bytes keeps
// the template byte-invariant: all-reduce/reduce-scatter of n bytes
// over n dies produces unit chunks exactly.
func (st *evalState) collTemplateFor(t *mesh.Topology, s parallel.Strategy, kind byte) collTemplate {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.coll == nil {
		st.coll = map[collKey]collTemplate{}
	}
	k := collKey{s: s, kind: kind}
	if ct, ok := st.coll[k]; ok {
		return ct
	}
	ct := buildCollTemplate(t, st.orders[s], kind)
	st.coll[k] = ct
	return ct
}

func buildCollTemplate(t *mesh.Topology, orders [][]mesh.DieID, kind byte) collTemplate {
	n := len(orders[0])
	for _, o := range orders {
		if len(o) != n {
			return collTemplate{}
		}
	}
	unitBytes := float64(n) // all-reduce and reduce-scatter chunk by n
	if kind == collAllGather {
		unitBytes = 1
	}
	seqs := make([][]mesh.Phase, len(orders))
	for i, order := range orders {
		seqs[i] = lowerRingKind(t, kind, order, unitBytes)
	}
	return collTemplate{tmpl: collective.Compile(seqs...), n: n}
}

// lowerRingKind dispatches one per-group lowering. For all-reduce and
// reduce-scatter bytes is the per-participant payload (the lowering
// chunks it by the group size); for all-gather it is the per-flow
// shard directly.
func lowerRingKind(t *mesh.Topology, kind byte, order []mesh.DieID, bytes float64) []mesh.Phase {
	switch kind {
	case collAllReduce:
		return collective.RingAllReduce(t, order, bytes)
	case collAllGather:
		return collective.RingAllGather(t, order, bytes)
	case collReduceScatter:
		return collective.RingReduceScatter(t, order, bytes)
	default:
		panic("cost: unknown collective kind")
	}
}

// stateKey keys memoized evalStates on a frozen topology.
type stateKey struct {
	cfg    parallel.Config
	linear bool
	tcme   bool
}

// stateFor returns the memoized evalState for (topo, cfg) under the
// given placement family and ordering flavor. Placement errors are
// memoized too: sweeps re-ask about unplaceable configurations
// constantly.
func stateFor(topo *mesh.Topology, cfg parallel.Config, linear, tcmeOrders bool) (*evalState, error) {
	st := topo.Derived(stateKey{cfg: cfg, linear: linear, tcme: tcmeOrders}, func() any {
		var place *parallel.Placement
		var err error
		if linear {
			place, err = parallel.PlaceLinear(cfg, topo)
		} else {
			place, err = parallel.Place(cfg, topo)
		}
		if err != nil {
			return &evalState{err: err}
		}
		return newEvalState(topo, place, tcmeOrders)
	}).(*evalState)
	return st, st.err
}

// newEvalState lowers a placement's group structure onto the
// topology: stream orchestrations for TATP and communication orders
// for every other strategy.
func newEvalState(topo *mesh.Topology, place *parallel.Placement, tcmeOrders bool) *evalState {
	st := &evalState{}
	for _, g := range place.Groups(parallel.TATP) {
		st.orchs = append(st.orchs, stream.Orchestrate(topo, aliveOnly(topo, g.Dies), g.Rect))
	}
	for _, s := range parallel.Strategies() {
		for _, g := range place.Groups(s) {
			order := groupOrder(topo, g, tcmeOrders)
			order = aliveOnly(topo, order)
			if len(order) <= 1 {
				continue
			}
			st.orders[s] = append(st.orders[s], order)
		}
	}
	return st
}

// evaluator carries the shared lowering state for one evaluation.
type evaluator struct {
	m    model.Config
	w    hw.Wafer
	cfg  parallel.Config
	o    Options
	topo *mesh.Topology
	st   *evalState

	graph model.Graph

	// replay forces every communication phase through the TCME
	// link-load replay regardless of the mapping engine — the
	// "replay" backend's contention-fidelity mode. The analytic tier
	// leaves it false, keeping the historical behaviour bit-identical.
	replay bool

	// slow is the compute-time multiplier of core faults, 1/capacity:
	// TEMP's adaptive re-partitioning (Fig. 20(a) step 2) re-balances
	// sub-tensors to the surviving cores, so a wafer at mean capacity c
	// computes 1/c slower. It applies only above 1; the zero value
	// means no slowdown.
	slow float64

	linkBytes float64 // Σ flow bytes × hops, for energy/utilization
	tcmeAgg   tcme.Result

	// seqBuf and collSeq are reusable lowered-sequence scratch for the
	// stream and collective terms. A nil seqBuf grows on demand; the
	// pooled scratch threads one buffer through every evaluation so
	// steady-state candidates allocate nothing.
	seqBuf  []mesh.LoweredSeq
	collSeq [1]mesh.LoweredSeq

	// terms is what run priced per layer, for Debug.
	terms layerTerms

	// planned, when set, gets a copy of every template sequence the
	// TCME path prices through route plans; the plan oracle test
	// replays them through the materialized optimizer. (Handing it seq
	// itself would move the evaluator to the heap.)
	planned func([]mesh.LoweredSeq)
}

// layerTerms are the terms run builds a step from: per layer and
// micro-step, the forward compute (after core slowdown), the backward
// recompute surcharge, the forward TATP stream and the exposed forward
// collectives; and once a step, the DP gradient all-reduce.
type layerTerms struct {
	fwd, recompute, stream, coll, dpAR float64
}

// needTCME reports whether phases must pass through the TCME
// link-load optimizer (the TEMP engine, or the replay backend's
// contention fidelity).
func (ev *evaluator) needTCME() bool { return ev.o.Engine == TCMEEngine || ev.replay }

// evalLowered times a scaled-template sequence in place,
// allocation-free once warm. The TCME path times each template's route
// plan instead of the template and aggregates the plans' statistics
// exactly as OptimizeAll over the materialized sequence would.
func (ev *evaluator) evalLowered(seq []mesh.LoweredSeq) float64 {
	if ev.needTCME() {
		if ev.planned != nil {
			ev.planned(append([]mesh.LoweredSeq(nil), seq...))
		}
		var agg tcme.Result
		for i := range seq {
			seq[i].Prof = ev.st.planFor(ev.topo, seq[i].Tmpl, ev.o.TCME).price(seq[i].Bytes, &agg)
		}
		ev.tcmeAgg.Add(agg)
	}
	pt := ev.topo.SeqTimeLowered(seq)
	ev.linkBytes += pt.LinkBytes
	return pt.Total()
}

// Evaluate runs the cost model for one model/wafer/config triple.
// The TCME engine explores both placement families (hierarchical
// rectangles and linear runs) and keeps the faster — part of the
// mapping-space exploration GMap lacks (§VIII-A).
func Evaluate(m model.Config, w hw.Wafer, cfg parallel.Config, o Options) (Breakdown, error) {
	return evaluate(m, w, cfg, o, false)
}

// evaluate is the shared Price core, a batch of one; replay selects
// the contention replay fidelity of the "replay" backend.
func evaluate(m model.Config, w hw.Wafer, cfg parallel.Config, o Options, replay bool) (Breakdown, error) {
	var out [1]Breakdown
	var errs [1]error
	priceBatch(m, w, []parallel.Config{cfg}, o, out[:], errs[:], replay)
	return out[0], errs[0]
}

// aliveOnly filters dead dies out of a group (fault adaptation keeps
// the survivors streaming).
func aliveOnly(t *mesh.Topology, dies []mesh.DieID) []mesh.DieID {
	out := make([]mesh.DieID, 0, len(dies))
	for _, d := range dies {
		if t.DieAlive(d) {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return dies
	}
	return out
}

func (ev *evaluator) run() (Breakdown, error) {
	m, cfg, o := ev.m, ev.cfg, ev.o
	stages := maxInt(cfg.PP, 1)
	layersPerStage := unit.CeilDiv(m.Layers, stages)
	mem := MemoryPerDie(m, ev.w, cfg, o, layersPerStage)

	mb := o.microbatch()
	perRankBatch := maxInt(m.Batch/maxInt(cfg.DP, 1), 1)
	if mb > perRankBatch {
		mb = perRankBatch
	}
	microSteps := maxInt(perRankBatch/mb, 1)

	// --- Per-layer compute (one micro-step, forward). ---
	fwdComp, recompExtra := ev.layerCompute(mb)
	if ev.slow > 1 {
		fwdComp *= ev.slow
		recompExtra *= ev.slow
	}

	// --- Per-layer TATP streams (forward). ---
	streamComm := ev.layerStreamComm(mb, 1, true)

	// --- Per-layer exposed collectives (forward). ---
	collPerLayerFwd := ev.layerCollectives(mb)

	// --- FSDP per-layer weight gather / grad scatter. ---
	fsdpPerLayer := ev.fsdpCollectives()

	// Forward: TATP ops overlap stream with their own compute
	// (Eq. 2: max{Comp, P2P}); the remaining ops expose compute.
	// Backward doubles both compute and stream volume.
	overlap := func(comp, comm float64) float64 {
		if o.DisableStreamOverlap {
			return comp + comm
		}
		return unit.MaxF(comp, comm)
	}
	layerFwd := overlap(fwdComp, streamComm) + collPerLayerFwd + fsdpPerLayer.fwd
	bwdStream := 2 * streamComm
	if ev.replay {
		// Contention replay: backward streams move twice the bytes per
		// sub-tensor (activation grads ride with the streamed operand),
		// and link bandwidth is granularity-dependent — so replay the
		// doubled sub-tensors instead of doubling the forward time.
		// The forward FSDP gather is not re-run here; backward FSDP
		// costs are charged in fsdpPerLayer.bwd.
		bwdStream = ev.layerStreamComm(mb, 2, false)
	}
	layerBwd := overlap(2*fwdComp, bwdStream) + recompExtra + collPerLayerFwd + fsdpPerLayer.bwd
	layerTime := layerFwd + layerBwd

	microTime := float64(layersPerStage) * layerTime

	// --- Pipeline staging across wafers. ---
	var p2pTime, bubbleTime float64
	if stages > 1 {
		hop := ev.interStageBytes(mb)/ev.w.InterWaferBandwidth + ev.w.InterWaferLatency
		p2pTime = 2 * hop * float64(microSteps) // fwd act + bwd grad per micro-step
		bubbleTime = float64(stages-1) * (microTime + 2*hop)
	}

	// --- Data-parallel gradient sync + optimizer (once a step). ---
	// Its link bytes are per-step, not per-layer-per-micro-step, so
	// they are accounted separately from the layer-scope bytes
	// accumulated so far.
	layerLinkBytes := ev.linkBytes
	dpAR := ev.dpAllReduce(layersPerStage)
	stepLinkBytes0 := ev.linkBytes - layerLinkBytes
	ev.linkBytes = layerLinkBytes
	ev.terms = layerTerms{fwd: fwdComp, recompute: recompExtra, stream: streamComm, coll: collPerLayerFwd, dpAR: dpAR}
	bwdPerMicro := float64(layersPerStage) * layerBwd
	dpExposed := unit.MaxF(0, dpAR-0.5*bwdPerMicro)

	optimBytes := mem.Optimizer
	optimTime := 3 * optimBytes / ev.w.Die.MemBandwidth()
	// ZeRO-1 distributed optimizer: each rank updates its shard and
	// all-gathers the refreshed FP16 weights across the DP group.
	if o.DistributedOptimizer && !cfg.FSDP && cfg.DP > 1 {
		shard := ev.graph.WeightBytes() * float64(layersPerStage) /
			float64(cfg.TP*cfg.TATP*cfg.DP)
		agBefore := ev.linkBytes
		optimTime += ev.groupCollective(parallel.DP, collAllGather, shard)
		stepLinkBytes0 += ev.linkBytes - agBefore
		ev.linkBytes = agBefore
	}

	stepTime := float64(microSteps)*microTime + p2pTime + bubbleTime + dpExposed + optimTime

	// --- Aggregates. ---
	computeTotal := float64(microSteps) * float64(layersPerStage) * (3*fwdComp + recompExtra)
	streamExposed := float64(microSteps) * float64(layersPerStage) *
		(unit.MaxF(0, streamComm-fwdComp) + unit.MaxF(0, bwdStream-2*fwdComp))
	collTotal := float64(microSteps)*float64(layersPerStage)*(2*collPerLayerFwd+fsdpPerLayer.fwd+fsdpPerLayer.bwd) + dpExposed

	b := Breakdown{
		Model:          m.Name,
		Config:         cfg,
		Engine:         o.Engine,
		StepTime:       stepTime,
		ComputeTime:    computeTotal,
		StreamTime:     streamExposed,
		CollectiveTime: collTotal,
		P2PTime:        p2pTime,
		BubbleTime:     bubbleTime,
		OptimizerTime:  optimTime,
		Memory:         mem,
		TCME:           ev.tcmeAgg,
	}

	// --- Energy & power. ---
	dies := float64(ev.topo.Dies()) * float64(o.wafers())
	totalFLOPs := 3 * float64(m.Layers) * ev.graph.ForwardFLOPs() // whole model, whole batch
	if fwdComp > 0 {
		// Recomputation executes extra FLOPs; charge their energy.
		totalFLOPs *= (3*fwdComp + recompExtra) / (3 * fwdComp)
	}
	b.EnergyCompute = totalFLOPs / ev.w.Die.FLOPSPerWatt
	// Idle draw: compute units burn a fraction of busy power while
	// stalled on exposed communication and bubbles.
	busyPower := ev.w.Die.PeakFLOPS / ev.w.Die.FLOPSPerWatt * dies
	if idle := stepTime - computeTotal; idle > 0 {
		b.EnergyCompute += idlePowerFrac * busyPower * idle
	}
	stepLinkBytes := ev.linkBytes*float64(microSteps)*float64(layersPerStage) + stepLinkBytes0
	b.EnergyComm = stepLinkBytes * 8 * ev.w.Link.EnergyPerBit
	dramPerDie := float64(microSteps) * (3*mem.Weights + 6*mem.Activations/float64(maxInt(layersPerStage, 1))) // weights reread + act traffic
	dramPerDie += 3 * optimBytes
	b.EnergyDRAM = dramPerDie * dies * 8 * ev.w.Die.HBMEnergyPerBit

	tokens := float64(m.Tokens())
	b.ThroughputTokens = tokens / stepTime
	b.Power = (b.EnergyCompute + b.EnergyComm + b.EnergyDRAM) / stepTime
	if b.Power > 0 {
		b.PowerEfficiency = b.ThroughputTokens / b.Power
	}
	links := float64(ev.topo.NumLinks())
	if links > 0 && stepTime > 0 {
		b.BWUtilization = unit.Clamp(stepLinkBytes/ev.w.Link.Bandwidth/(links*stepTime), 0, 1)
	}
	return b, nil
}

// layerCompute returns the per-die forward compute time of one block
// for a micro-step of mb sequences (opCompute summed over the block's
// operators), and the recomputation surcharge applied during backward.
func (ev *evaluator) layerCompute(mb int) (fwd, recompExtra float64) {
	frac := float64(mb) / float64(ev.m.Batch) // micro-step share per DP rank
	var attn float64
	for i := range ev.graph.Ops {
		op := &ev.graph.Ops[i]
		t := opCompute(&ev.w.Die, op, ev.cfg, frac, ev.o.NoFlashAttention)
		fwd += t
		if op.FlashFused {
			attn += t
		}
	}
	switch ev.o.Recompute {
	case RecomputeFull:
		recompExtra = fwd
	case RecomputeSelective:
		recompExtra = attn
	}
	return fwd, recompExtra
}

// layerStreamComm returns the TATP streaming time of one block: all
// weighted GEMMs stream their selected operand around each TATP group
// concurrently. scale multiplies the streamed sub-tensor bytes (the
// replay tier prices backward's doubled volume at its true
// granularity); withFSDP merges the per-layer FSDP weight all-gather
// into the streams — it runs concurrently with them and contends for
// the same links, the Fig. 11 scenario TCME untangles.
func (ev *evaluator) layerStreamComm(mb int, scale float64, withFSDP bool) float64 {
	cfg := ev.cfg
	if cfg.TATP <= 1 || len(ev.st.orchs) == 0 {
		return 0
	}
	o := ev.o
	o.Microbatch = mb
	fsdpMerged := withFSDP && cfg.FSDP && cfg.DP > 1
	if !fsdpMerged {
		// Common case: every weighted op streams the same merged
		// orchestration structure at its own sub-tensor size — one
		// template entry per op, no materialization on the analytic
		// path.
		tmpl := ev.st.streamTemplate()
		seq := ev.seqBuf[:0]
		var rounds int
		for _, op := range ev.graph.Ops {
			if !op.HasWeight() {
				continue
			}
			sub, _ := streamSubTensorBytes(op, ev.m, cfg, o)
			seq = append(seq, mesh.LoweredSeq{Tmpl: tmpl, Bytes: sub * scale})
			rounds += cfg.TATP
		}
		ev.seqBuf = seq[:0]
		return ev.evalLowered(seq) + float64(rounds)*streamRoundSync
	}
	// FSDP×TATP hybrid: the per-layer weight all-gather rides merged
	// inside the stream phases (Fig. 11), mixing two byte sizes in one
	// phase — the materialized path handles the non-uniform flows. Each
	// op's streams are the merged stream template at its sub-tensor
	// size.
	tmpl := ev.st.streamTemplate()
	var streamSeq []mesh.Phase
	var rounds int
	for _, op := range ev.graph.Ops {
		if !op.HasWeight() {
			continue
		}
		sub, _ := streamSubTensorBytes(op, ev.m, cfg, o)
		streamSeq = append(streamSeq, tmpl.Materialize(sub*scale)...)
		rounds += cfg.TATP
	}
	layerW := ev.graph.WeightBytes() / float64(cfg.TP*cfg.TATP)
	shard := layerW / float64(cfg.DP)
	var agSeqs [][]mesh.Phase
	for _, order := range ev.st.orders[parallel.DP] {
		agSeqs = append(agSeqs, collective.RingAllGather(ev.topo, order, shard))
	}
	if len(agSeqs) > 0 {
		streamSeq = collective.Merge(append([][]mesh.Phase{streamSeq}, agSeqs...)...)
	}
	return ev.evalPhases(streamSeq) + float64(rounds)*streamRoundSync
}

// layerCollectives returns the exposed forward collective time of one
// block under the configured strategies: Megatron TP all-reduces (or
// their SP-fused AG+RS form), standalone sequence-parallel gathers
// and context-parallel KV gathers.
func (ev *evaluator) layerCollectives(mb int) float64 {
	cfg := ev.cfg
	h := float64(ev.m.Hidden)
	fp := unit.FP16.Size()
	sAR := float64(ev.m.Seq) / float64(cfg.SP*cfg.CP*cfg.TATP)
	var total float64

	if cfg.TP > 1 {
		// Two partial-sum reductions per block (attention projection
		// and FC2).
		bytes := float64(mb) * sAR * h * fp
		total += 2 * ev.groupCollective(parallel.TP, collAllReduce, bytes)
	}
	if cfg.SP > 1 && !cfg.MegatronSP {
		shard := float64(mb) * sAR * h * fp
		total += ev.groupCollective(parallel.SP, collAllGather, shard/float64(cfg.SP))
		total += ev.groupCollective(parallel.SP, collReduceScatter, shard)
	}
	if cfg.CP > 1 {
		kv := 2 * float64(mb) * sAR * h * fp / float64(cfg.TP)
		total += ev.groupCollective(parallel.CP, collAllGather, kv/float64(cfg.CP))
	}
	return total
}

type fsdpCost struct{ fwd, bwd float64 }

// fsdpCollectives returns the per-layer weight all-gather (forward
// and backward) and gradient reduce-scatter costs of FSDP sharding.
// Under FSDP×TATP hybrids the forward gather already rides inside the
// merged stream phases (layerStreamComm), so only backward costs
// remain here.
func (ev *evaluator) fsdpCollectives() fsdpCost {
	cfg := ev.cfg
	if !cfg.FSDP || cfg.DP <= 1 {
		return fsdpCost{}
	}
	if cfg.TATP > 1 {
		layerW := ev.graph.WeightBytes() / float64(cfg.TP*cfg.TATP)
		rs := ev.groupCollective(parallel.DP, collReduceScatter, layerW)
		ag := ev.groupCollective(parallel.DP, collAllGather, layerW/float64(cfg.DP))
		return fsdpCost{fwd: 0, bwd: ag + rs}
	}
	layerW := ev.graph.WeightBytes() / float64(cfg.TP*cfg.TATP)
	shard := layerW / float64(cfg.DP)
	ag := ev.groupCollective(parallel.DP, collAllGather, shard)
	rs := ev.groupCollective(parallel.DP, collReduceScatter, layerW)
	return fsdpCost{fwd: ag, bwd: ag + rs}
}

// dpAllReduce returns the gradient synchronization time across DP
// groups for one step (non-FSDP data parallelism).
func (ev *evaluator) dpAllReduce(layersPerStage int) float64 {
	cfg := ev.cfg
	if cfg.FSDP || cfg.DP <= 1 {
		return 0
	}
	grads := ev.graph.WeightBytes() * float64(layersPerStage) / float64(cfg.TP*cfg.TATP)
	return ev.groupCollective(parallel.DP, collAllReduce, grads)
}

// groupCollective lowers one ring collective onto every pre-ordered
// group of a strategy, merges the concurrent phases, optionally
// optimizes them with TCME, and returns the wall time. bytes is the
// per-participant payload for all-reduce/reduce-scatter (chunked by
// group size) and the per-flow shard for all-gather. When every group
// shares one size the merged structure comes from the state's
// compiled template; unequal survivor groups (fault scenarios) take
// the per-group lowering path.
func (ev *evaluator) groupCollective(s parallel.Strategy, kind byte, bytes float64) float64 {
	orders := ev.st.orders[s]
	if len(orders) == 0 || bytes <= 0 {
		return 0
	}
	if ct := ev.st.collTemplateFor(ev.topo, s, kind); ct.tmpl != nil {
		perFlow := bytes
		if kind == collAllReduce || kind == collReduceScatter {
			perFlow = bytes / float64(ct.n)
		}
		ev.collSeq[0] = mesh.LoweredSeq{Tmpl: ct.tmpl, Bytes: perFlow}
		// Each ring step is a synchronized phase across the group:
		// charge the same per-phase setup/barrier overhead as stream
		// rounds.
		return ev.evalLowered(ev.collSeq[:]) + float64(ct.tmpl.Phases())*streamRoundSync
	}
	var seqs [][]mesh.Phase
	for _, order := range orders {
		seqs = append(seqs, lowerRingKind(ev.topo, kind, order, bytes))
	}
	merged := collective.Merge(seqs...)
	return ev.evalPhases(merged) + float64(len(merged))*streamRoundSync
}

// groupOrder returns the communication order of a group. SMap and
// GMap communicate in logical rank order (NCCL-style rings over rank
// IDs): SMap's scattered groups then wrap across rows multi-hop,
// while GMap's rectangular placement at least keeps ranks nearby but
// still pays an in-rect wrap — the "does not optimize D2D
// communication" deficiency of §VIII-A. Only TEMP's mapping engine
// re-orders communication onto the group's physical Hamiltonian ring
// (or snake path) before TCME's contention optimization runs.
func groupOrder(t *mesh.Topology, g parallel.Group, tcmeOrders bool) []mesh.DieID {
	if !tcmeOrders {
		return g.Dies
	}
	if g.Rect != nil {
		if ring, ok := g.Rect.RingPath(t); ok {
			return ring
		}
		return g.Rect.SnakePath(t)
	}
	return nearestNeighborOrder(t, g.Dies)
}

// nearestNeighborOrder re-sequences a scattered group greedily by hop
// distance so ring collectives traverse short segments — the mapping
// engine's logical-orchestration step for non-contiguous groups.
func nearestNeighborOrder(t *mesh.Topology, dies []mesh.DieID) []mesh.DieID {
	if len(dies) <= 2 {
		return dies
	}
	rest := append([]mesh.DieID(nil), dies[1:]...)
	out := []mesh.DieID{dies[0]}
	for len(rest) > 0 {
		cur := out[len(out)-1]
		bi, bd := 0, 1<<30
		for i, d := range rest {
			if h := t.HopDistance(cur, d); h < bd {
				bi, bd = i, h
			}
		}
		out = append(out, rest[bi])
		rest = append(rest[:bi], rest[bi+1:]...)
	}
	return out
}

// evalPhases times a materialized phase sequence, applying TCME when
// enabled, and accumulates link-byte statistics. Only phases whose
// flows carry different byte counts come here (the FSDP×TATP merged
// stream, unequal survivor groups); templates go through evalLowered.
func (ev *evaluator) evalPhases(phases []mesh.Phase) float64 {
	if ev.needTCME() {
		opt, agg := tcme.OptimizeAll(ev.topo, phases, ev.o.TCME)
		phases = opt
		ev.tcmeAgg.Add(agg)
	}
	pt := ev.topo.SeqTime(phases)
	ev.linkBytes += pt.LinkBytes
	return pt.Total()
}

// interStageBytes is the activation volume handed to the next
// pipeline stage per micro-step, per die.
func (ev *evaluator) interStageBytes(mb int) float64 {
	h := float64(ev.m.Hidden)
	return float64(mb) * float64(ev.m.Seq) * h * unit.FP16.Size() / float64(ev.cfg.Degree())
}
