package cost

import (
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/tensor"
	"temp/internal/unit"
)

// OperatorModel is the per-operator fast path of a cost backend: it
// prices single operators and operator transitions under candidate
// strategies — the shape the solver's search strategies evaluate
// millions of times. It is structurally identical to solver.CostModel,
// so any backend's operator model plugs straight into a
// solver.Problem.
//
// Implementations must be safe for concurrent use after construction
// (the solver prices GA populations across worker goroutines).
type OperatorModel interface {
	// Intra returns T_intra(op) of Eq. (2): compute overlapped with
	// streaming plus exposed collectives, under the strategy.
	Intra(op model.Op, cfg parallel.Config) float64
	// Inter returns T_inter(op1, op2) of Eq. (3): the resharding P2P
	// cost between consecutive operators under their strategies.
	Inter(prev, next model.Op, pc, nc parallel.Config) float64
	// MemoryOK reports whether the strategy fits per-die memory for
	// the whole model.
	MemoryOK(cfg parallel.Config) bool
}

// OperatorAnalytic is the closed-form wafer cost model of §VII-A: ring
// and stream formulas over the Table I link parameters, matching the
// first-order behaviour of the full mesh simulation at a tiny fraction
// of its cost. It is the analytic backend's operator fast path
// (solver.Analytic is an alias for it).
//
// The struct is read-only after construction, so it is safe for
// concurrent use as-is.
type OperatorAnalytic struct {
	W hw.Wafer
	M model.Config
	// Microbatch sequences per DP rank (0 = default 4).
	Microbatch int
	// MemBudget per die; 0 means the wafer die's capacity.
	MemBudget float64
}

func (a *OperatorAnalytic) mb() float64 {
	if a.Microbatch > 0 {
		return float64(a.Microbatch)
	}
	return 4
}

// computeTerm prices the pure compute share of one operator — the
// tier-independent part every backend's Intra shares (the fidelity
// axis is communication).
func (a *OperatorAnalytic) computeTerm(op model.Op, cfg parallel.Config) float64 {
	return opCompute(&a.W.Die, &op, cfg, a.mb()/float64(a.M.Batch), false)
}

// opCompute returns the per-die compute time of one operator on a frac
// share of the global batch — the one per-op compute formula of the
// step evaluator and the operator models.
//
// GEMM-class operators divide across every model-parallel dimension,
// at a tile efficiency set by the per-round shard. Vector operators
// (layer norms, softmax, GeLU, residuals) divide only across the
// dimensions that actually shard activations: plain Megatron TP
// replicates them on every TP rank — the redundant computation
// Megatron-3's sequence parallelism was built to remove. Flash-fused
// attention ops never spill the score matrix to DRAM, so unless
// noFlash is set they are costed on vector throughput alone; every
// other vector op is also bound by its DRAM traffic.
func opCompute(die *hw.Die, op *model.Op, cfg parallel.Config, frac float64, noFlash bool) float64 {
	if op.Kind.IsGEMM() {
		shard := op.FLOPs * frac / float64(cfg.TP*cfg.SP*cfg.CP*cfg.TATP)
		per := shard
		if cfg.TATP > 1 && op.HasWeight() {
			per = shard / float64(cfg.TATP) // per-round tile
		}
		eff := per / (per + gemmHalfEff)
		if eff < 0.05 {
			eff = 0.05
		}
		return shard / (die.PeakFLOPS * eff)
	}
	vecShard := float64(cfg.SP * cfg.CP * cfg.TATP)
	if op.TPSharded || cfg.MegatronSP {
		vecShard *= float64(cfg.TP)
	}
	shard := op.FLOPs * frac / vecShard
	comp := shard / die.VectorFLOPS
	if !op.FlashFused || noFlash {
		bytes := (op.Input.Bytes() + op.Output.Bytes()) * frac / vecShard
		comp = unit.MaxF(comp, bytes/die.MemBandwidth())
	}
	return comp
}

// streamedBytes returns the per-group streamed operand volume and
// the per-round sub-tensor size of one weighted op under TATP — the
// tier-shared operand-selection rule (min of weight and input
// shards).
func (a *OperatorAnalytic) streamedBytes(op model.Op, cfg parallel.Config) (streamed, sub float64) {
	frac := a.mb() / float64(a.M.Batch)
	wGroup := op.Weight.Bytes() / float64(cfg.TP)
	iGroup := op.Input.Bytes() * frac / float64(cfg.SP*cfg.CP)
	streamed = unit.MinF(wGroup, iGroup)
	return streamed, streamed / float64(cfg.TATP)
}

// arBytes returns the per-block partial-sum all-reduce volume of the
// TP collective — shared by every tier (only its lowering differs).
func (a *OperatorAnalytic) arBytes(cfg parallel.Config) float64 {
	return a.mb() * float64(a.M.Seq) / float64(cfg.SP*cfg.CP*cfg.TATP) *
		float64(a.M.Hidden) * unit.FP16.Size()
}

// Intra implements OperatorModel.
func (a *OperatorAnalytic) Intra(op model.Op, cfg parallel.Config) float64 {
	cfg = cfg.Normalize()
	comp := a.computeTerm(op, cfg)

	// Streaming (TATP) overlaps with compute; collectives expose.
	var stream float64
	if cfg.TATP > 1 && op.HasWeight() {
		streamed, sub := a.streamedBytes(op, cfg)
		stream = streamed/a.W.Link.EffectiveBandwidth(sub) + float64(cfg.TATP)*streamRoundSync
	}

	var coll float64
	if cfg.TP > 1 && op.HasWeight() {
		// Half the weighted GEMMs end a TP block with a partial-sum
		// reduction; amortize one AR across two weighted ops.
		arBytes := a.arBytes(cfg)
		n := float64(cfg.TP)
		chunk := arBytes / n
		coll = 0.5 * (2 * (n - 1) * chunk / a.W.Link.EffectiveBandwidth(chunk))
	}
	return unit.MaxF(comp, stream) + coll
}

// actPartition derives the activation layout a configuration induces.
func actPartition(cfg parallel.Config) tensor.Partition {
	cfg = cfg.Normalize()
	p := tensor.SplitBy(map[tensor.Dim]int{
		tensor.B: cfg.DP,
		tensor.M: cfg.SP * cfg.CP * cfg.TATP,
	})
	if cfg.MegatronSP {
		p = p.Compose(tensor.SplitBy(map[tensor.Dim]int{tensor.M: cfg.TP}))
	} else {
		p = p.WithReplicas(cfg.TP)
	}
	return p
}

// ReshardBytes returns the bytes one operator transition moves per
// micro-step under two layouts — the exact structural part of the
// inter cost every fidelity tier shares.
func (a *OperatorAnalytic) ReshardBytes(prev model.Op, pc, nc parallel.Config) float64 {
	bytes := tensor.ReshardBytes(prev.Output, actPartition(pc), actPartition(nc))
	return bytes * a.mb() / float64(a.M.Batch)
}

// Inter implements OperatorModel: resharding bytes over one mesh link
// at effective bandwidth (consecutive operators live on the same dies,
// so a layout change is a neighbor exchange).
func (a *OperatorAnalytic) Inter(prev, next model.Op, pc, nc parallel.Config) float64 {
	bytes := a.ReshardBytes(prev, pc, nc)
	if bytes <= 0 {
		return 0
	}
	return bytes / a.W.Link.EffectiveBandwidth(bytes)
}

// MemoryOK implements OperatorModel with the same footprint
// conventions as the full model: weights+grads+optimizer+selective
// activations.
func (a *OperatorAnalytic) MemoryOK(cfg parallel.Config) bool {
	cfg = cfg.Normalize()
	budget := a.MemBudget
	if budget <= 0 {
		budget = a.W.Die.MemCapacity()
	}
	p := float64(a.M.Params())
	weights := p * 2 / float64(cfg.WeightShardWays())
	grads := weights
	optim := p * 12 / float64(cfg.Degree())
	sLocal := float64(a.M.Seq) / float64(cfg.SP*cfg.CP*cfg.TATP)
	if cfg.MegatronSP {
		sLocal /= float64(cfg.TP)
	}
	acts := 34 * a.mb() * sLocal * float64(a.M.Hidden) * float64(a.M.Layers)
	return weights+grads+optim+acts <= budget
}

var _ OperatorModel = (*OperatorAnalytic)(nil)
