// Package surrogate implements the DNN-based cost model of §VII-A
// and its verification methodology (§VIII-G, Fig. 21): datasets are
// generated from the wafer simulator across three latency categories
// (single-operator computation, collective/point-to-point
// communication, and computation/communication overlap), an MLP is
// trained per category, and its accuracy and lookup speed are
// compared against a multivariate linear-regression baseline.
package surrogate

import (
	"math"
	"math/rand"
	"time"

	"temp/internal/collective"
	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/nn"
	"temp/internal/unit"
)

// Category selects a latency family (Fig. 21 panels a–c).
type Category int

// Latency categories.
const (
	// Compute covers GEMM, GEMV, softmax and SiLU operator latency.
	Compute Category = iota
	// Comm covers All-Reduce, Reduce-Scatter, All-Gather and P2P.
	Comm
	// Overlap covers GEMM computation overlapped with TATP-style
	// tensor streaming.
	Overlap
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case Compute:
		return "compute"
	case Comm:
		return "communication"
	case Overlap:
		return "overlap"
	default:
		return "category"
	}
}

// Sample pairs a feature vector with a ground-truth latency (ms).
type Sample struct {
	Features []float64
	TargetMS float64
}

// simulator holds the ground-truth machinery.
type simulator struct {
	w    hw.Wafer
	topo *mesh.Topology
}

func newSimulator(w hw.Wafer) *simulator {
	return &simulator{w: w, topo: mesh.FromWafer(w)}
}

const gemmHalfEff = 1e9

// computeTruth prices one operator on a die: PE array with the tile
// efficiency knee for matrix kinds, vector units with a DRAM bound
// for softmax/SiLU.
func (s *simulator) computeTruth(kind int, b, m, n, k float64) float64 {
	die := s.w.Die
	switch kind {
	case 0: // GEMM
		fl := 2 * b * m * n * k
		eff := fl / (fl + gemmHalfEff)
		return fl / (die.PeakFLOPS * eff)
	case 1: // GEMV
		fl := 2 * b * n * k
		bytes := (b*n + n*k + b*k) * 2
		return unit.MaxF(fl/(die.PeakFLOPS*0.25), bytes/die.MemBandwidth())
	case 2: // softmax
		fl := 5 * b * m * n
		bytes := 2 * b * m * n * 2
		return unit.MaxF(fl/die.VectorFLOPS, bytes/die.MemBandwidth())
	default: // SiLU
		fl := 6 * b * m * n
		bytes := 2 * b * m * n * 2
		return unit.MaxF(fl/die.VectorFLOPS, bytes/die.MemBandwidth())
	}
}

// commTruth lowers one collective onto the wafer mesh and times it
// with the flow-level contention model.
func (s *simulator) commTruth(op int, group int, bytes float64) float64 {
	rect := mesh.Rect{R0: 0, C0: 0, R1: 1, C1: group/2 - 1}
	if group == 2 {
		rect = mesh.Rect{R0: 0, C0: 0, R1: 0, C1: 1}
	}
	order, ok := rect.RingPath(s.topo)
	if !ok {
		order = rect.SnakePath(s.topo)
	}
	var phases []mesh.Phase
	switch op {
	case 0:
		phases = collective.RingAllReduce(s.topo, order, bytes)
	case 1:
		phases = collective.RingReduceScatter(s.topo, order, bytes)
	case 2:
		phases = collective.RingAllGather(s.topo, order, bytes/float64(group))
	default:
		phases = collective.P2P(s.topo, order[0], order[len(order)-1], bytes)
	}
	return s.topo.SeqTime(phases).Total()
}

// overlapTruth prices a GEMM overlapped with TATP weight streaming
// over n dies (Eq. 2's max term plus per-round sync).
func (s *simulator) overlapTruth(flops, streamBytes float64, n float64) float64 {
	die := s.w.Die
	comp := flops / n
	eff := comp / n / (comp/n + gemmHalfEff)
	if eff < 0.05 {
		eff = 0.05
	}
	compT := comp / (die.PeakFLOPS * eff)
	sub := streamBytes / n
	commT := streamBytes/s.w.Link.EffectiveBandwidth(sub) + n*2*unit.Microsecond
	return unit.MaxF(compT, commT)
}

// Generate builds a dataset of the category by sweeping batch size,
// sequence length and hidden size (the §VIII-G methodology).
func Generate(cat Category, n int, w hw.Wafer, rng *rand.Rand) []Sample {
	sim := newSimulator(w)
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		switch cat {
		case Compute:
			kind := rng.Intn(4)
			b := float64(int(1) << rng.Intn(5))     // 1..16
			m := float64(int(256) << rng.Intn(7))   // 256..16k
			h := float64(1024 * (1 + rng.Intn(16))) // 1k..16k
			k := float64(1024 * (1 + rng.Intn(16))) // 1k..16k
			t := sim.computeTruth(kind, b, m, h, k)
			kindHot := []float64{0, 0, 0, 0}
			kindHot[kind] = 1
			out = append(out, Sample{
				Features: append([]float64{b, m, h, k}, kindHot...),
				TargetMS: t * 1e3,
			})
		case Comm:
			op := rng.Intn(4)
			group := []int{2, 4, 8, 16}[rng.Intn(4)]
			bytes := float64(int(1)<<rng.Intn(10)) * unit.MB // 1MB..512MB
			t := sim.commTruth(op, group, bytes)
			opHot := []float64{0, 0, 0, 0}
			opHot[op] = 1
			out = append(out, Sample{
				Features: append([]float64{float64(group), bytes}, opHot...),
				TargetMS: t * 1e3,
			})
		case Overlap:
			flops := float64(int(1)<<rng.Intn(12)) * 1e10 // 1e10..2e13
			bytes := float64(int(1)<<rng.Intn(9)) * unit.MB
			n := []float64{2, 4, 8, 16, 32}[rng.Intn(5)]
			t := sim.overlapTruth(flops, bytes, n)
			out = append(out, Sample{
				Features: []float64{flops, bytes, n},
				TargetMS: t * 1e3,
			})
		}
	}
	return out
}

// Predictor prices a feature vector in milliseconds.
type Predictor interface {
	Predict(features []float64) float64
}

// DNN is the trained MLP cost model: standardized log features and a
// log-space target, so accuracy is uniform in relative terms across
// the microsecond-to-second latency range.
//
// A DNN is immutable once TrainDNN returns — Predict only reads the
// trained weights and the standardizer statistics — so one trained
// model may serve concurrent Predict calls from any number of
// goroutines. This is the contract solver.CostModel requires of
// surrogate-backed models (the GA prices whole populations in
// parallel). The same holds for Linear.
type DNN struct {
	mlp *nn.MLP
	std *nn.Standardizer
}

func logFeat(f []float64) []float64 {
	out := make([]float64, len(f))
	for i, v := range f {
		out[i] = math.Log1p(v)
	}
	return out
}

// TrainDNN fits the MLP cost model on a dataset.
func TrainDNN(train []Sample, rng *rand.Rand) *DNN {
	xs := make([][]float64, len(train))
	ys := make([][]float64, len(train))
	for i, s := range train {
		xs[i] = logFeat(s.Features)
		ys[i] = []float64{math.Log(s.TargetMS)}
	}
	std := nn.FitStandardizer(xs)
	xs = std.ApplyAll(xs)
	mlp := nn.NewMLP([]int{len(xs[0]), 48, 48, 1}, rng)
	mlp.Fit(xs, ys, 500, 32, nn.AdamConfig{LR: 3e-3}, rng)
	return &DNN{mlp: mlp, std: std}
}

// Predict implements Predictor.
func (d *DNN) Predict(features []float64) float64 {
	x := d.std.Apply(logFeat(features))
	return math.Exp(d.mlp.Predict(x)[0])
}

// Linear is the multivariate-regression baseline of Fig. 21.
type Linear struct {
	lr *nn.LinearRegression
}

// TrainLinear fits the baseline on raw features.
func TrainLinear(train []Sample) *Linear {
	xs := make([][]float64, len(train))
	ys := make([]float64, len(train))
	for i, s := range train {
		xs[i] = s.Features
		ys[i] = s.TargetMS
	}
	return &Linear{lr: nn.FitLinear(xs, ys, 1e-6)}
}

// Predict implements Predictor.
func (l *Linear) Predict(features []float64) float64 {
	return l.lr.Predict(features)
}

// Eval summarises a model's accuracy and lookup speed on a test set.
type Eval struct {
	Corr    float64
	MAPE    float64
	PerCall time.Duration
}

// Validate measures correlation, mean absolute percentage error and
// per-prediction latency.
func Validate(p Predictor, test []Sample) Eval {
	preds := make([]float64, len(test))
	truths := make([]float64, len(test))
	start := time.Now()
	for i, s := range test {
		preds[i] = p.Predict(s.Features)
		truths[i] = s.TargetMS
	}
	elapsed := time.Since(start)
	return Eval{
		Corr:    nn.Pearson(preds, truths),
		MAPE:    nn.MAPE(preds, truths),
		PerCall: elapsed / time.Duration(len(test)),
	}
}
