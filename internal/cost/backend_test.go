package cost

import (
	"testing"

	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
)

func TestBackendRegistry(t *testing.T) {
	names := BackendNames()
	want := map[string]bool{"analytic": false, "replay": false, "surrogate": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, ok := range want {
		if !ok {
			t.Errorf("backend %q not registered (have %v)", n, names)
		}
	}
	if _, err := NewBackend("no-such-tier"); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := NewBackend("surrogate@seed=x"); err == nil {
		t.Error("malformed seed accepted")
	}
	if _, err := NewBackend("surrogate@population=3"); err == nil {
		t.Error("unknown key parameter accepted")
	}
	// Case-insensitive resolution, cached instances.
	a1, err := NewBackend("Replay")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewBackend("replay")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("backend instances are not cached per key")
	}
}

func TestCanonicalBackendKey(t *testing.T) {
	cases := map[string]string{
		"":                 "",
		"analytic":         "",
		"Analytic":         "",
		"analytic@seed=9":  "",
		"replay":           "replay",
		" Replay ":         "replay",
		"replay @seed=1":   "replay",
		"surrogate":        "surrogate@seed=1",
		"surrogate@seed=7": "surrogate@seed=7",
	}
	for in, want := range cases {
		if got := CanonicalBackendKey(in); got != want {
			t.Errorf("CanonicalBackendKey(%q) = %q, want %q", in, got, want)
		}
	}
	if got := BackendKey("surrogate", 7); got != "surrogate@seed=7" {
		t.Errorf("BackendKey = %q", got)
	}
	if got := BackendKey("analytic", 7); got != "" {
		t.Errorf("BackendKey(analytic) = %q, want empty", got)
	}
}

// FuzzCanonicalBackendKey: canonicalizing any backend key never panics
// and is idempotent, so every spelling of one tier shares one engine
// memo key.
func FuzzCanonicalBackendKey(f *testing.F) {
	for _, k := range []string{"", "analytic", "replay", "surrogate", "surrogate@seed=7",
		"Replay@seed=3", "replay @seed=1", "x@y"} {
		f.Add(k)
	}
	f.Fuzz(func(t *testing.T, key string) {
		once := CanonicalBackendKey(key)
		if twice := CanonicalBackendKey(once); twice != once {
			t.Errorf("CanonicalBackendKey(%q) = %q, but CanonicalBackendKey(%q) = %q", key, once, once, twice)
		}
	})
}

// TestReplayBackendDiffers: the replay tier must price streaming
// configurations differently from the analytic tier — backward TATP
// streams are replayed at their true doubled sub-tensor granularity
// instead of the closed-form 2× forward-time scaling — and never
// worse (bigger sub-tensors see better effective bandwidth, and the
// forced TCME replay only relieves congestion). A stream-free
// configuration has nothing to replay and must price identically.
func TestReplayBackendDiffers(t *testing.T) {
	w := hw.EvaluationWafer()
	m := model.GPT3_6_7B()
	be, err := NewBackend("replay")
	if err != nil {
		t.Fatal(err)
	}

	tatp := parallel.Config{DP: 2, TP: 2, TATP: 8}
	for _, o := range []Options{
		TEMPOptions(),
		{Engine: SMap, Recompute: RecomputeSelective, DistributedOptimizer: true},
	} {
		a, err := Evaluate(m, w, tatp, o)
		if err != nil {
			t.Fatal(err)
		}
		r, err := be.Price(m, w, tatp, o)
		if err != nil {
			t.Fatal(err)
		}
		if r.StepTime == a.StepTime {
			t.Errorf("engine %s: replay step %v identical to analytic — backward-stream replay had no effect", o.Engine, r.StepTime)
		}
		if r.StepTime > a.StepTime*(1+1e-9) {
			t.Errorf("engine %s: replay step %v worse than analytic %v", o.Engine, r.StepTime, a.StepTime)
		}
	}

	noStream := parallel.Config{DP: 4, TP: 8}
	o := TEMPOptions()
	a, err := Evaluate(m, w, noStream, o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := be.Price(m, w, noStream, o)
	if err != nil {
		t.Fatal(err)
	}
	if r.StepTime != a.StepTime {
		t.Errorf("stream-free config: replay %v ≠ analytic %v (nothing to replay)", r.StepTime, a.StepTime)
	}
}

// TestReplayOperatorModel: the replay operator model replays real
// placements; compute-only and memory terms must agree with the
// analytic tier while communication terms may legitimately differ.
func TestReplayOperatorModel(t *testing.T) {
	w := hw.EvaluationWafer()
	m := model.GPT3_6_7B()
	be, err := NewBackend("replay")
	if err != nil {
		t.Fatal(err)
	}
	om, err := be.Operator(m, w)
	if err != nil {
		t.Fatal(err)
	}
	an := &OperatorAnalytic{W: w, M: m}
	g := model.BlockGraph(m)
	space := parallel.EnumerateConfigs(w.Dies(), true, 0)
	if len(space) == 0 {
		t.Fatal("empty space")
	}
	var commCfg *parallel.Config
	for i := range space {
		if space[i].TATP > 1 || space[i].TP > 1 {
			commCfg = &space[i]
			break
		}
	}
	if commCfg == nil {
		t.Fatal("no communicating config in space")
	}
	for _, op := range g.Ops {
		rt := om.Intra(op, *commCfg)
		if rt <= 0 {
			t.Errorf("op %s: non-positive replay intra %v", op.Name, rt)
		}
		// Determinism: the memoized lowering state must serve identical
		// times.
		if rt2 := om.Intra(op, *commCfg); rt2 != rt {
			t.Errorf("op %s: replay intra not deterministic: %v vs %v", op.Name, rt, rt2)
		}
		if om.MemoryOK(*commCfg) != an.MemoryOK(*commCfg) {
			t.Errorf("op %s: replay memory verdict diverged from analytic", op.Name)
		}
	}
	if om.Inter(g.Ops[0], g.Ops[1], *commCfg, *commCfg) != 0 {
		t.Error("identical layouts must reshard for free at every tier")
	}
}

// TestSurrogateBackendDeterminism is the reproducibility criterion:
// two independently-trained surrogate backends with the same seed
// must produce bit-identical prices and operator predictions (same
// spec → same Breakdown), and a different seed must actually change
// the trained weights.
func TestSurrogateBackendDeterminism(t *testing.T) {
	w := hw.EvaluationWafer()
	m := model.GPT3_6_7B()
	cfg := parallel.Config{DP: 2, TP: 4, TATP: 4}
	opts := TEMPOptions()

	s1 := newSurrogateBackend(42)
	s2 := newSurrogateBackend(42)
	b1, err := s1.Price(m, w, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s2.Price(m, w, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if b1.StepTime != b2.StepTime || b1.ComputeTime != b2.ComputeTime {
		t.Errorf("same seed, different prices: %v vs %v", b1.StepTime, b2.StepTime)
	}
	om1, err := s1.Operator(m, w)
	if err != nil {
		t.Fatal(err)
	}
	om2, err := s2.Operator(m, w)
	if err != nil {
		t.Fatal(err)
	}
	g := model.BlockGraph(m)
	for _, op := range g.Ops {
		if v1, v2 := om1.Intra(op, cfg), om2.Intra(op, cfg); v1 != v2 {
			t.Fatalf("op %s: same seed, different predictions: %v vs %v", op.Name, v1, v2)
		}
	}

	s3 := newSurrogateBackend(43)
	b3, err := s3.Price(m, w, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if b3.StepTime == b1.StepTime {
		t.Error("different seeds produced identical prices — seed not plumbed into training")
	}
	// Feasibility is exact at the surrogate tier.
	an := &OperatorAnalytic{W: w, M: m}
	if om1.MemoryOK(cfg) != an.MemoryOK(cfg) {
		t.Error("surrogate memory verdict diverged from analytic")
	}
}

// TestSurrogateAccuracy: the screening tier must track the analytic
// teacher closely enough to rank candidates (≤10% mean relative
// error over the searched space).
func TestSurrogateAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep is not -short")
	}
	w := hw.EvaluationWafer()
	m := model.GPT3_6_7B()
	be := newSurrogateBackend(7)
	omI, err := be.Operator(m, w)
	if err != nil {
		t.Fatal(err)
	}
	om := omI.(*surrogateOperator)
	an := &OperatorAnalytic{W: w, M: m}
	g := model.BlockGraph(m)
	space := parallel.EnumerateConfigs(w.Dies(), true, 0)
	var sum float64
	var n int
	for ci, cfg := range space {
		op := g.Ops[ci%len(g.Ops)]
		truth := an.Intra(op, cfg)
		pred := om.Intra(op, cfg)
		if truth <= 0 {
			continue
		}
		rel := (pred - truth) / truth
		if rel < 0 {
			rel = -rel
		}
		sum += rel
		n++
	}
	if n == 0 {
		t.Fatal("no samples")
	}
	if mape := sum / float64(n); mape > 0.10 {
		t.Errorf("surrogate mean relative error %.1f%% > 10%%", mape*100)
	}
}
