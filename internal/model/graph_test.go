package model

import (
	"math"
	"testing"
)

func TestBlockGraphStructure(t *testing.T) {
	g := BlockGraph(GPT3_6_7B())
	if len(g.Ops) != 12 {
		t.Fatalf("block has %d ops, want 12 (Fig. 12 block with fused attention)", len(g.Ops))
	}
	// GEMM-class ops: QKV, score, context, proj, FC1, FC2.
	var gemms, weighted int
	for _, o := range g.Ops {
		if o.Kind.IsGEMM() {
			gemms++
		}
		if o.HasWeight() {
			weighted++
		}
	}
	if gemms != 6 {
		t.Errorf("GEMM-class ops = %d, want 6", gemms)
	}
	if weighted != 4 {
		t.Errorf("weighted ops = %d, want 4 (QKV, proj, FC1, FC2)", weighted)
	}
}

func TestBlockWeightBytesMatchLayerParams(t *testing.T) {
	for _, c := range EvaluationModels() {
		g := BlockGraph(c)
		got := g.WeightBytes()
		// Graph carries the matmul weights; LayerParams adds the
		// small layer-norm vectors.
		want := float64(c.LayerParams()) * 2
		if r := got / want; r < 0.99 || r > 1.001 {
			t.Errorf("%s: block weight bytes %.3e vs layer params %.3e (ratio %.4f)",
				c.Name, got, want, r)
		}
	}
}

func TestBlockFLOPsMatchConfig(t *testing.T) {
	for _, c := range EvaluationModels() {
		g := BlockGraph(c)
		got := g.ForwardFLOPs()
		want := c.LayerFLOPs()
		if r := got / want; r < 0.95 || r > 1.05 {
			t.Errorf("%s: graph FLOPs %.3e vs config %.3e (ratio %.3f)", c.Name, got, want, r)
		}
	}
}

func TestOpKindStrings(t *testing.T) {
	kinds := map[OpKind]string{
		GEMM: "gemm", AttentionScore: "attn-score", Softmax: "softmax",
		AttentionContext: "attn-context", GeLU: "gelu", LayerNorm: "layernorm",
		Residual: "residual", Embedding: "embedding",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestCutPointsAvoidResidualSpans(t *testing.T) {
	g := BlockGraph(GPT3_6_7B())
	cuts := g.CutPoints()
	if len(cuts) == 0 {
		t.Fatal("no cut points found")
	}
	for _, c := range cuts {
		if g.Ops[c].ResidualSpan || g.Ops[c-1].ResidualSpan {
			t.Errorf("cut at %d splits a residual span", c)
		}
	}
}

func TestSegmentsCoverAllOps(t *testing.T) {
	g := BlockGraph(GPT3_175B())
	segs := g.Segments()
	if len(segs) < 2 {
		t.Fatalf("expected ≥2 residual-free segments, got %d", len(segs))
	}
	var n int
	for _, s := range segs {
		n += len(s)
	}
	if n != len(g.Ops) {
		t.Errorf("segments cover %d ops, want %d", n, len(g.Ops))
	}
	// Order must be preserved.
	id := 0
	for _, s := range segs {
		for _, o := range s {
			if o.ID < id {
				t.Fatalf("segment order broken at op %d", o.ID)
			}
			id = o.ID
		}
	}
}

func TestFlashFusedOpsMarked(t *testing.T) {
	g := BlockGraph(GPT3_6_7B())
	var fused int
	for _, o := range g.Ops {
		if o.FlashFused {
			fused++
			if o.Kind == GEMM {
				t.Errorf("plain GEMM %s marked flash-fused", o.Name)
			}
		}
	}
	if fused != 3 {
		t.Errorf("flash-fused ops = %d, want 3 (score, softmax, context)", fused)
	}
}

func TestIOBytesPositive(t *testing.T) {
	g := BlockGraph(Llama2_7B())
	for _, o := range g.Ops {
		if o.Input.Bytes() <= 0 || o.Output.Bytes() <= 0 {
			t.Errorf("op %s has non-positive IO bytes", o.Name)
		}
		if o.FLOPs <= 0 {
			t.Errorf("op %s has non-positive FLOPs", o.Name)
		}
	}
}

func TestAttentionQuadraticInSeq(t *testing.T) {
	short := BlockGraph(GPT3_6_7B())
	long := BlockGraph(GPT3_6_7B().WithSeq(4096, 128))
	var fShort, fLong float64
	for _, o := range short.Ops {
		if o.Kind == AttentionScore {
			fShort = o.FLOPs
		}
	}
	for _, o := range long.Ops {
		if o.Kind == AttentionScore {
			fLong = o.FLOPs
		}
	}
	if r := fLong / fShort; math.Abs(r-4) > 1e-9 {
		t.Errorf("attention FLOPs ratio for 2× seq = %v, want 4 (quadratic)", r)
	}
}
