// Package model provides the LLM workload descriptions used across
// the evaluation: the parameter configurations of Table II (plus the
// larger multi-wafer models of §VIII-E and the motivation models of
// Fig. 4), and the per-layer transformer operator graph of Fig. 12
// with analytic FLOP and byte counts. These shapes — not data values
// — are what the wafer cost model consumes.
package model

import "fmt"

// Config describes one transformer language model (Table II).
type Config struct {
	Name string
	// Heads is the attention head count.
	Heads int
	// Batch is the global training batch size (sequences).
	Batch int
	// Hidden is the model dimension.
	Hidden int
	// Layers is the transformer block count.
	Layers int
	// Seq is the training sequence length.
	Seq int
	// FFNMult is the feed-forward expansion (intermediate =
	// FFNMult × Hidden); 4 for GPT-style models.
	FFNMult int
	// Vocab is the vocabulary size (embedding/unembedding params).
	Vocab int
}

// Intermediate returns the FFN intermediate dimension.
func (c Config) Intermediate() int { return c.FFNMult * c.Hidden }

// HeadDim returns the per-head dimension.
func (c Config) HeadDim() int { return c.Hidden / c.Heads }

// Tokens returns tokens per global batch.
func (c Config) Tokens() int64 { return int64(c.Batch) * int64(c.Seq) }

// Params returns the total parameter count: 12·H²-ish per layer
// (QKV 3H², attention projection H², FC1 and FC2 each FFNMult·H²)
// plus layer norms and the embedding table.
func (c Config) Params() int64 {
	h := int64(c.Hidden)
	perLayer := 4*h*h + 2*int64(c.FFNMult)*h*h + 4*h
	return int64(c.Layers)*perLayer + int64(c.Vocab)*h
}

// LayerParams returns parameters of one transformer block.
func (c Config) LayerParams() int64 {
	h := int64(c.Hidden)
	return 4*h*h + 2*int64(c.FFNMult)*h*h + 4*h
}

// LayerFLOPs returns the forward FLOPs of one transformer block for
// the configured batch: GEMMs at 2·elems plus the attention
// score/context products.
func (c Config) LayerFLOPs() float64 {
	b, m, h := float64(c.Batch), float64(c.Seq), float64(c.Hidden)
	f := float64(c.Intermediate())
	gemms := 2 * b * m * (3*h*h + h*h + h*f + f*h) // QKV, proj, FC1, FC2
	attn := 2 * b * m * m * h * 2                  // Q·Kᵀ and Score·V
	return gemms + attn
}

// Table II models.

// GPT3_6_7B returns GPT-3 6.7B (32 heads, batch 128, hidden 4096,
// 32 layers, seq 2048).
func GPT3_6_7B() Config {
	return Config{Name: "GPT-3 6.7B", Heads: 32, Batch: 128, Hidden: 4096, Layers: 32, Seq: 2048, FFNMult: 4, Vocab: 50257}
}

// Llama2_7B returns Llama2 7B (32 heads, batch 128, hidden 4096,
// 32 layers, seq 4096).
func Llama2_7B() Config {
	return Config{Name: "Llama2 7B", Heads: 32, Batch: 128, Hidden: 4096, Layers: 32, Seq: 4096, FFNMult: 4, Vocab: 32000}
}

// Llama3_70B returns Llama3 70B (64 heads, batch 128, hidden 8192,
// 80 layers, seq 4096).
func Llama3_70B() Config {
	return Config{Name: "Llama3 70B", Heads: 64, Batch: 128, Hidden: 8192, Layers: 80, Seq: 4096, FFNMult: 4, Vocab: 128256}
}

// GPT3_76B returns GPT-3 76B (80 heads, batch 128, hidden 10240,
// 60 layers, seq 2048).
func GPT3_76B() Config {
	return Config{Name: "GPT-3 76B", Heads: 80, Batch: 128, Hidden: 10240, Layers: 60, Seq: 2048, FFNMult: 4, Vocab: 50257}
}

// GPT3_175B returns GPT-3 175B (96 heads, batch 128, hidden 12288,
// 96 layers, seq 2048).
func GPT3_175B() Config {
	return Config{Name: "GPT-3 175B", Heads: 96, Batch: 128, Hidden: 12288, Layers: 96, Seq: 2048, FFNMult: 4, Vocab: 50257}
}

// OPT_175B returns OPT 175B (96 heads, batch 128, hidden 12288,
// 96 layers, seq 4096).
func OPT_175B() Config {
	return Config{Name: "OPT 175B", Heads: 96, Batch: 128, Hidden: 12288, Layers: 96, Seq: 4096, FFNMult: 4, Vocab: 50272}
}

// Multi-wafer models (§VIII-E).

// Grok1_341B returns the Grok-1 341B dense-equivalent configuration.
func Grok1_341B() Config {
	return Config{Name: "Grok-1 341B", Heads: 96, Batch: 128, Hidden: 15360, Layers: 120, Seq: 4096, FFNMult: 4, Vocab: 131072}
}

// Llama3_405B returns Llama3 405B.
func Llama3_405B() Config {
	return Config{Name: "Llama3 405B", Heads: 128, Batch: 128, Hidden: 16384, Layers: 126, Seq: 4096, FFNMult: 4, Vocab: 128256}
}

// GPT3_504B returns the 504B GPT-3 variant of Fig. 19.
func GPT3_504B() Config {
	return Config{Name: "GPT-3 504B", Heads: 128, Batch: 128, Hidden: 18432, Layers: 124, Seq: 4096, FFNMult: 4, Vocab: 50257}
}

// Motivation-figure models (Fig. 4).

// DeepSeek7B returns DeepSeek 7B.
func DeepSeek7B() Config {
	return Config{Name: "DeepSeek 7B", Heads: 32, Batch: 128, Hidden: 4096, Layers: 30, Seq: 4096, FFNMult: 4, Vocab: 102400}
}

// DeepSeek67B returns DeepSeek 67B.
func DeepSeek67B() Config {
	return Config{Name: "DeepSeek 67B", Heads: 64, Batch: 128, Hidden: 8192, Layers: 95, Seq: 4096, FFNMult: 4, Vocab: 102400}
}

// DeepSeekV2_236B returns DeepSeek-V2 236B (dense-equivalent shape).
func DeepSeekV2_236B() Config {
	return Config{Name: "DeepSeek-V2 236B", Heads: 128, Batch: 128, Hidden: 12288, Layers: 118, Seq: 4096, FFNMult: 4, Vocab: 102400}
}

// Bloom176B returns Bloom 176B.
func Bloom176B() Config {
	return Config{Name: "Bloom 176B", Heads: 112, Batch: 128, Hidden: 14336, Layers: 70, Seq: 2048, FFNMult: 4, Vocab: 250880}
}

// Llama2_30B returns the Llama2 30B-class model used in Fig. 7(c).
func Llama2_30B() Config {
	return Config{Name: "Llama2 30B", Heads: 52, Batch: 128, Hidden: 6656, Layers: 60, Seq: 4096, FFNMult: 4, Vocab: 32000}
}

// Llama2_70B returns Llama2 70B.
func Llama2_70B() Config {
	return Config{Name: "Llama2 70B", Heads: 64, Batch: 128, Hidden: 8192, Layers: 80, Seq: 4096, FFNMult: 4, Vocab: 32000}
}

// EvaluationModels returns the six Table II models in paper order.
func EvaluationModels() []Config {
	return []Config{GPT3_6_7B(), Llama2_7B(), Llama3_70B(), GPT3_76B(), GPT3_175B(), OPT_175B()}
}

// Zoo returns every named model in the repository — Table II, the
// multi-wafer models of §VIII-E and the motivation models of Fig. 4 —
// in paper order. The scenario registry is seeded from it.
func Zoo() []Config {
	return append(EvaluationModels(),
		Grok1_341B(), Llama3_405B(), GPT3_504B(),
		DeepSeek7B(), DeepSeek67B(), DeepSeekV2_236B(),
		Bloom176B(), Llama2_30B(), Llama2_70B())
}

// Validate checks the structural invariants a configuration must
// satisfy before the cost model can price it: positive shape
// dimensions and a hidden dimension the attention heads divide.
func (c Config) Validate() error {
	if c.Layers <= 0 {
		return fmt.Errorf("model: %q has %d layers, need ≥ 1", c.Name, c.Layers)
	}
	if c.Hidden <= 0 {
		return fmt.Errorf("model: %q has non-positive hidden dim %d", c.Name, c.Hidden)
	}
	if c.Heads <= 0 {
		return fmt.Errorf("model: %q has non-positive head count %d", c.Name, c.Heads)
	}
	if c.Hidden%c.Heads != 0 {
		return fmt.Errorf("model: %q hidden dim %d is not divisible by %d heads", c.Name, c.Hidden, c.Heads)
	}
	if c.Batch <= 0 || c.Seq <= 0 {
		return fmt.Errorf("model: %q has non-positive batch/seq (%d, %d)", c.Name, c.Batch, c.Seq)
	}
	if c.FFNMult <= 0 {
		return fmt.Errorf("model: %q has non-positive FFN multiplier %d", c.Name, c.FFNMult)
	}
	return nil
}

// WithSeq returns a copy with sequence length (and optionally batch)
// overridden; used by the long-sequence studies (Fig. 17/18).
func (c Config) WithSeq(seq, batch int) Config {
	c.Seq = seq
	if batch > 0 {
		c.Batch = batch
	}
	c.Name = fmt.Sprintf("%s(S=%d)", c.Name, seq)
	return c
}

// String implements fmt.Stringer.
func (c Config) String() string {
	return fmt.Sprintf("%s{H=%d L=%d heads=%d B=%d S=%d}", c.Name, c.Hidden, c.Layers, c.Heads, c.Batch, c.Seq)
}
