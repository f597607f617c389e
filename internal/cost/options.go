// Package cost implements TEMP's wafer-centric cost model (§VII-A):
// it lowers one LLM training step under a hybrid parallel
// configuration onto the wafer mesh and produces latency (compute,
// stream, collective, pipeline-bubble), per-die memory occupancy,
// energy/power and throughput estimates. The same model evaluates the
// paper's baselines (Megatron-1, Megatron-3/MeSP, FSDP × SMap/GMap)
// and the A100 GPU cluster of Fig. 15, so every comparison in the
// evaluation runs through one consistent pipeline.
package cost

import "fmt"

// Engine selects the mapping engine (§VIII-A baselines).
type Engine int

// Mapping engines.
const (
	// SMap is the sequential mapper: logical ranks are flattened in
	// a fixed priority order onto row-major die IDs, producing
	// wrapped, non-contiguous groups with multi-hop communication.
	SMap Engine = iota
	// GMap is the Gemini-adapted mapper: groups land on contiguous
	// rectangles, but communication stays contention-agnostic.
	GMap
	// TCMEEngine is TEMP's traffic-conscious mapping engine:
	// rectangle placement plus the §VI-B communication optimizer.
	TCMEEngine
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case SMap:
		return "SMap"
	case GMap:
		return "GMap"
	case TCMEEngine:
		return "TCME"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// Recompute selects the activation-recomputation policy, which
// dominates activation residency.
type Recompute int

// Recomputation policies.
const (
	// RecomputeNone stashes every intermediate activation
	// (including the attention score matrices when flash attention
	// is unavailable).
	RecomputeNone Recompute = iota
	// RecomputeSelective stashes the standard 34·s·b·h bytes per
	// layer (flash-attention-style selective recomputation).
	RecomputeSelective
	// RecomputeFull stashes only each layer's input (2·s·b·h bytes)
	// and re-runs the forward pass during backward.
	RecomputeFull
)

// String implements fmt.Stringer.
func (r Recompute) String() string {
	switch r {
	case RecomputeNone:
		return "none"
	case RecomputeSelective:
		return "selective"
	case RecomputeFull:
		return "full"
	default:
		return fmt.Sprintf("recompute(%d)", int(r))
	}
}

// Options configures one evaluation.
type Options struct {
	Engine    Engine
	Recompute Recompute
	// DistributedOptimizer shards FP32 optimizer state across all
	// weight-replica dimensions (ZeRO-1 style). Megatron-1 predates
	// it; every newer baseline and TEMP enable it.
	DistributedOptimizer bool
	// Microbatch is the number of sequences each data-parallel rank
	// processes per micro-step; the rest of the global batch is
	// covered by gradient accumulation. 0 means DefaultMicrobatch.
	Microbatch int
	// Wafers is the number of wafers; PP in the parallel config
	// spreads pipeline stages across them (§VIII-E). 0 means 1.
	Wafers int
	// DisableStreamOverlap turns off TATP's compute/communication
	// overlap (ablation: pure TSPP without pipelined rounds).
	DisableStreamOverlap bool
	// ForceStreamWeights disables the selective transfer policy and
	// always streams sub-weights, the canonical TSPP dataflow of
	// Fig. 8 / Algorithm 1. The Fig. 9 sweet-spot study uses it.
	ForceStreamWeights bool
	// NoFlashAttention disables the flash-attention/online-softmax
	// fusion of Fig. 12 operators 4–7: attention score matrices then
	// spill to DRAM and are stashed for backward. Megatron-1
	// predates these kernels; TEMP and the newer baselines have them
	// (§VII-A).
	NoFlashAttention bool
}

// DefaultMicrobatch is the per-rank micro-step size in sequences.
const DefaultMicrobatch = 4

func (o Options) microbatch() int {
	if o.Microbatch > 0 {
		return o.Microbatch
	}
	return DefaultMicrobatch
}

func (o Options) wafers() int {
	if o.Wafers > 0 {
		return o.Wafers
	}
	return 1
}

// TEMPOptions returns the options TEMP itself runs with.
func TEMPOptions() Options {
	return Options{
		Engine:               TCMEEngine,
		Recompute:            RecomputeSelective,
		DistributedOptimizer: true,
	}
}
