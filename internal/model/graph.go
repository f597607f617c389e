package model

import (
	"fmt"
	"sync"

	"temp/internal/tensor"
	"temp/internal/unit"
)

// OpKind classifies a transformer operator (Fig. 12(a)).
type OpKind int

// Operator kinds. GEMM-class ops run on PE arrays; the rest run on
// vector units (§II-B core-level configuration).
const (
	GEMM OpKind = iota
	AttentionScore
	Softmax
	AttentionContext
	GeLU
	LayerNorm
	Residual
	Embedding
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case GEMM:
		return "gemm"
	case AttentionScore:
		return "attn-score"
	case Softmax:
		return "softmax"
	case AttentionContext:
		return "attn-context"
	case GeLU:
		return "gelu"
	case LayerNorm:
		return "layernorm"
	case Residual:
		return "residual"
	case Embedding:
		return "embedding"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// IsGEMM reports whether the op runs on the PE array.
func (k OpKind) IsGEMM() bool {
	return k == GEMM || k == AttentionScore || k == AttentionContext
}

// Op is one node of the transformer compute graph. Shapes follow the
// Eq. (1) convention: Input [B,M,N], Weight [N,K], Output [B,M,K].
// Attention ops reinterpret M as sequence and K as sequence or head
// dimension as appropriate; what the cost model needs is accurate
// FLOPs and byte counts, which are precomputed here.
type Op struct {
	// ID is the position in the block, 1-based, matching the
	// numbering of Fig. 12(a).
	ID   int
	Name string
	Kind OpKind

	Input  tensor.Shape
	Weight tensor.Shape
	Output tensor.Shape

	// FLOPs is the forward operation count.
	FLOPs float64
	// ResidualSpan marks ops inside a residual bypass: the DLWS
	// graph partition may only cut the chain at ops where this is
	// false (§VII-B divide-and-conquer step).
	ResidualSpan bool
	// FlashFused marks the attention ops fused by FlashAttention /
	// online softmax (ops 4–7 of Fig. 12(a)).
	FlashFused bool
	// TPSharded marks ops inside the tensor-parallel regions
	// (attention and MLP blocks): their work divides across the TP
	// group. Layer norms and residual adds sit outside and are
	// replicated on every TP rank unless sequence parallelism is
	// fused in — the redundancy Megatron-3 removes.
	TPSharded bool
}

// HasWeight reports whether the op carries trainable parameters.
func (o Op) HasWeight() bool { return o.Weight.Elems() > 0 }

// Graph is the operator chain of one transformer block, executed
// Layers times per training step.
type Graph struct {
	Model Config
	Ops   []Op
}

// graphCache memoizes BlockGraph per configuration: the graph is a
// pure function of the (comparable) Config, it sits on the cost
// model's hot path, and callers treat the returned Ops as read-only.
var graphCache sync.Map // Config → Graph

// BlockGraph returns the 13-operator transformer block of Fig. 12(a).
// The result is memoized and shared — callers must not modify Ops:
//
//	 1 LayerNorm
//	 2 QKV projection (GEMM)
//	 3 (per-head split handled by parallel layout)
//	 4 Q·Kᵀ        ┐
//	 5 online softmax │ flash-fused attention
//	 6 Score·V     ┘
//	 7 attention projection (GEMM)
//	 8 residual add
//	 9 LayerNorm
//	10 FC1 (GEMM)
//	11 GeLU
//	12 FC2 (GEMM)
//	13 residual add
func BlockGraph(c Config) Graph {
	if g, ok := graphCache.Load(c); ok {
		return g.(Graph)
	}
	g, _ := graphCache.LoadOrStore(c, buildBlockGraph(c))
	return g.(Graph)
}

// buildBlockGraph constructs the operator chain.
func buildBlockGraph(c Config) Graph {
	b, m, h := int64(c.Batch), int64(c.Seq), int64(c.Hidden)
	f := int64(c.Intermediate())
	a := int64(c.Heads)
	d := int64(c.HeadDim())
	fp := unit.FP16

	act := func(name string, hid int64) tensor.Shape { return tensor.Activation(name, b, m, hid, fp) }
	_ = d

	ops := []Op{
		{
			ID: 1, Name: "ln1", Kind: LayerNorm,
			Input: act("x", h), Output: act("ln1.out", h),
			FLOPs: 5 * float64(b*m*h),
		},
		{
			ID: 2, Name: "qkv", Kind: GEMM,
			Input:     act("ln1.out", h),
			Weight:    tensor.Weight("Wqkv", h, 3*h, fp),
			Output:    act("qkv.out", 3*h),
			FLOPs:     2 * float64(b*m*h*3*h),
			TPSharded: true,
		},
		{
			ID: 4, Name: "attn.score", Kind: AttentionScore,
			Input:        act("q", h),
			Output:       tensor.NewShape("scores", b*a, m, m, 0, fp),
			FLOPs:        2 * float64(b*m*m*h),
			ResidualSpan: true, FlashFused: true,
			TPSharded: true,
		},
		{
			ID: 5, Name: "attn.softmax", Kind: Softmax,
			Input:        tensor.NewShape("scores", b*a, m, m, 0, fp),
			Output:       tensor.NewShape("probs", b*a, m, m, 0, fp),
			FLOPs:        5 * float64(b*a*m*m),
			ResidualSpan: true, FlashFused: true,
			TPSharded: true,
		},
		{
			ID: 6, Name: "attn.context", Kind: AttentionContext,
			Input:        tensor.NewShape("probs", b*a, m, m, 0, fp),
			Output:       act("ctx", h),
			FLOPs:        2 * float64(b*m*m*h),
			ResidualSpan: true, FlashFused: true,
			TPSharded: true,
		},
		{
			ID: 7, Name: "attn.proj", Kind: GEMM,
			Input:        act("ctx", h),
			Weight:       tensor.Weight("Wproj", h, h, fp),
			Output:       act("proj.out", h),
			FLOPs:        2 * float64(b*m*h*h),
			ResidualSpan: true,
			TPSharded:    true,
		},
		{
			ID: 8, Name: "residual1", Kind: Residual,
			Input: act("proj.out", h), Output: act("res1.out", h),
			FLOPs: float64(b * m * h),
		},
		{
			ID: 9, Name: "ln2", Kind: LayerNorm,
			Input: act("res1.out", h), Output: act("ln2.out", h),
			FLOPs: 5 * float64(b*m*h),
		},
		{
			ID: 10, Name: "fc1", Kind: GEMM,
			Input:        act("ln2.out", h),
			Weight:       tensor.Weight("Wfc1", h, f, fp),
			Output:       act("fc1.out", f),
			FLOPs:        2 * float64(b*m*h*f),
			ResidualSpan: true,
			TPSharded:    true,
		},
		{
			ID: 11, Name: "gelu", Kind: GeLU,
			Input: act("fc1.out", f), Output: act("gelu.out", f),
			FLOPs:        8 * float64(b*m*f),
			ResidualSpan: true,
			TPSharded:    true,
		},
		{
			ID: 12, Name: "fc2", Kind: GEMM,
			Input:        act("gelu.out", f),
			Weight:       tensor.Weight("Wfc2", f, h, fp),
			Output:       act("fc2.out", h),
			FLOPs:        2 * float64(b*m*f*h),
			ResidualSpan: true,
			TPSharded:    true,
		},
		{
			ID: 13, Name: "residual2", Kind: Residual,
			Input: act("fc2.out", h), Output: act("block.out", h),
			FLOPs: float64(b * m * h),
		},
	}
	return Graph{Model: c, Ops: ops}
}

// ForwardFLOPs sums the forward FLOPs of the block.
func (g Graph) ForwardFLOPs() float64 {
	var s float64
	for _, o := range g.Ops {
		s += o.FLOPs
	}
	return s
}

// WeightBytes sums the parameter bytes of the block.
func (g Graph) WeightBytes() float64 {
	var s float64
	for _, o := range g.Ops {
		s += o.Weight.Bytes()
	}
	return s
}

// CutPoints returns the op indices (into Ops) before which the chain
// may be partitioned: positions not inside a residual span. Index 0
// and len(Ops) are implicit boundaries.
func (g Graph) CutPoints() []int {
	var cuts []int
	for i := 1; i < len(g.Ops); i++ {
		if !g.Ops[i].ResidualSpan && !g.Ops[i-1].ResidualSpan {
			cuts = append(cuts, i)
		}
	}
	return cuts
}

// Segments splits the chain at CutPoints into residual-free
// sub-graphs, the k sub-graphs of the DLS algorithm (Fig. 12(b)).
func (g Graph) Segments() [][]Op {
	cuts := g.CutPoints()
	bounds := append([]int{0}, cuts...)
	bounds = append(bounds, len(g.Ops))
	var segs [][]Op
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i+1] > bounds[i] {
			segs = append(segs, g.Ops[bounds[i]:bounds[i+1]])
		}
	}
	return segs
}
