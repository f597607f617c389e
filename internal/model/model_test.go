package model

import (
	"math"
	"testing"
)

// TestTableIIConfigs pins the Table II parameter configurations.
func TestTableIIConfigs(t *testing.T) {
	tests := []struct {
		cfg                               Config
		heads, batch, hidden, layers, seq int
	}{
		{GPT3_6_7B(), 32, 128, 4096, 32, 2048},
		{Llama2_7B(), 32, 128, 4096, 32, 4096},
		{Llama3_70B(), 64, 128, 8192, 80, 4096},
		{GPT3_76B(), 80, 128, 10240, 60, 2048},
		{GPT3_175B(), 96, 128, 12288, 96, 2048},
		{OPT_175B(), 96, 128, 12288, 96, 4096},
	}
	for _, tc := range tests {
		c := tc.cfg
		if c.Heads != tc.heads || c.Batch != tc.batch || c.Hidden != tc.hidden ||
			c.Layers != tc.layers || c.Seq != tc.seq {
			t.Errorf("%s = %+v, want heads=%d batch=%d hidden=%d layers=%d seq=%d",
				c.Name, c, tc.heads, tc.batch, tc.hidden, tc.layers, tc.seq)
		}
	}
}

// TestParamsMatchNominalSizes checks parameter counts land within 20%
// of each model's nominal size.
func TestParamsMatchNominalSizes(t *testing.T) {
	tests := []struct {
		cfg     Config
		nominal float64
	}{
		{GPT3_6_7B(), 6.7e9},
		{Llama2_7B(), 7e9},
		{Llama3_70B(), 70e9},
		{GPT3_76B(), 76e9},
		{GPT3_175B(), 175e9},
		{OPT_175B(), 175e9},
		{Grok1_341B(), 341e9},
		{Llama3_405B(), 405e9},
		{GPT3_504B(), 504e9},
	}
	for _, tc := range tests {
		got := float64(tc.cfg.Params())
		if r := got / tc.nominal; r < 0.8 || r > 1.25 {
			t.Errorf("%s params = %.2e, nominal %.2e (ratio %.2f)", tc.cfg.Name, got, tc.nominal, r)
		}
	}
}

func TestDerivedQuantities(t *testing.T) {
	c := GPT3_6_7B()
	if c.Intermediate() != 4*4096 {
		t.Errorf("Intermediate = %d", c.Intermediate())
	}
	if c.HeadDim() != 128 {
		t.Errorf("HeadDim = %d", c.HeadDim())
	}
	if c.Tokens() != 128*2048 {
		t.Errorf("Tokens = %d", c.Tokens())
	}
}

// TestLayerFLOPsApproximation: for short sequences, per-layer forward
// FLOPs ≈ 2·tokens·12H² within 10% (attention adds the rest).
func TestLayerFLOPsApproximation(t *testing.T) {
	c := GPT3_175B()
	tokens := float64(c.Tokens())
	h := float64(c.Hidden)
	gemmOnly := 2 * tokens * 12 * h * h
	got := c.LayerFLOPs()
	if got <= gemmOnly {
		t.Errorf("LayerFLOPs %v should exceed GEMM-only %v (attention term)", got, gemmOnly)
	}
	if got > 1.25*gemmOnly {
		t.Errorf("LayerFLOPs %v too large vs GEMM-only %v", got, gemmOnly)
	}
}

func TestWithSeq(t *testing.T) {
	c := GPT3_6_7B().WithSeq(16384, 32)
	if c.Seq != 16384 || c.Batch != 32 {
		t.Errorf("WithSeq = %+v", c)
	}
	// batch 0 keeps the original batch.
	c2 := GPT3_6_7B().WithSeq(16384, 0)
	if c2.Batch != 128 {
		t.Errorf("WithSeq(.,0) batch = %d", c2.Batch)
	}
}

func TestEvaluationModels(t *testing.T) {
	ms := EvaluationModels()
	if len(ms) != 6 {
		t.Fatalf("EvaluationModels = %d entries, want 6", len(ms))
	}
	names := map[string]bool{}
	for _, m := range ms {
		if names[m.Name] {
			t.Errorf("duplicate model %s", m.Name)
		}
		names[m.Name] = true
	}
}

// TestLlamaActivationVsWeightRatio validates the §V claim that drives
// the selective transfer policy: at long sequence lengths Llama2-7B
// activations are ~3× larger than the layer's weights.
func TestLlamaActivationVsWeightRatio(t *testing.T) {
	c := Llama2_7B().WithSeq(14336, 32)
	g := BlockGraph(c)
	// Compare the FC1 input activation against its weight tensor.
	var fc1 Op
	for _, o := range g.Ops {
		if o.Name == "fc1" {
			fc1 = o
		}
	}
	ratio := fc1.Input.Bytes() / fc1.Weight.Bytes()
	if ratio < 2 {
		t.Errorf("activation/weight ratio = %.2f, want ≥2 at 14k sequence", ratio)
	}
	// At short sequences with small batch, weights dominate instead.
	cs := Llama2_7B().WithSeq(512, 8)
	gs := BlockGraph(cs)
	for _, o := range gs.Ops {
		if o.Name == "fc1" {
			if r := o.Input.Bytes() / o.Weight.Bytes(); r > 1 {
				t.Errorf("short-seq ratio = %.2f, want <1", r)
			}
		}
	}
}

func TestLayerParamsConsistent(t *testing.T) {
	for _, c := range EvaluationModels() {
		perLayer := float64(c.LayerParams())
		total := float64(c.Params())
		embed := float64(c.Vocab) * float64(c.Hidden)
		if math.Abs(total-(float64(c.Layers)*perLayer+embed)) > 1 {
			t.Errorf("%s: Params inconsistent with LayerParams", c.Name)
		}
	}
}
