package solver

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"temp/internal/model"
	"temp/internal/parallel"
)

// termModel is a CostModel whose terms are fixed functions of the op
// ID and each configuration's DP field, cycling through the values a
// term table must store bit for bit: NaN, +Inf, −0 and an ordinary
// float. It counts its calls.
type termModel struct{ calls atomic.Int64 }

func termValue(k int) float64 {
	switch k % 4 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Copysign(0, -1)
	}
	return float64(k) + 0.25
}

func (m *termModel) Intra(op model.Op, cfg parallel.Config) float64 {
	m.calls.Add(1)
	return termValue(op.ID*10 + cfg.DP)
}

func (m *termModel) Inter(prev, next model.Op, pc, nc parallel.Config) float64 {
	m.calls.Add(1)
	return termValue(next.ID*100 + pc.DP*10 + nc.DP + 1)
}

func (m *termModel) MemoryOK(cfg parallel.Config) bool {
	m.calls.Add(1)
	return cfg.DP%3 != 0
}

// TestEvaluatorCountsEachTermOnce pins the dense term tables'
// contract: 8 goroutines racing over every key of a 4-op × 10-config
// problem count each distinct term exactly once — 40 intra, 3·100
// inter (op 0 has no coupling term) and 10 memory terms — and every
// value reads back bit-identical to what the model returned.
func TestEvaluatorCountsEachTermOnce(t *testing.T) {
	const nOps, nCfg, goroutines = 4, 10, 8
	ops := make([]model.Op, nOps)
	for i := range ops {
		ops[i].ID = i
	}
	space := make([]parallel.Config, nCfg)
	for c := range space {
		space[c].DP = c
	}
	cm := &termModel{}
	ev := newEvaluator(cm, ops, space)

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for op := 0; op < nOps; op++ {
				for a := 0; a < nCfg; a++ {
					ev.intraCost(op, a)
					ev.memoryOK(a)
					for b := 0; b < nCfg; b++ {
						ev.interCost(op, a, b)
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	const want = nOps*nCfg + (nOps-1)*nCfg*nCfg + nCfg
	if got := ev.n.Load(); got != want {
		t.Fatalf("counted %d evaluations, want %d", got, want)
	}
	if calls := cm.calls.Load(); calls < want {
		t.Fatalf("the model was called %d times for %d distinct terms", calls, want)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for op := 0; op < nOps; op++ {
		for a := 0; a < nCfg; a++ {
			if got, want := ev.intraCost(op, a), termValue(op*10+a); !same(got, want) {
				t.Errorf("intra (%d, %d) read back %v, want %v", op, a, got, want)
			}
			for b := 0; b < nCfg; b++ {
				want := 0.0
				if op > 0 {
					want = termValue(op*100 + a*10 + b + 1)
				}
				if got := ev.interCost(op, a, b); !same(got, want) {
					t.Errorf("inter (%d, %d, %d) read back %v, want %v", op, a, b, got, want)
				}
			}
		}
	}
	for c := 0; c < nCfg; c++ {
		if got := ev.memoryOK(c); got != (c%3 != 0) {
			t.Errorf("memoryOK(%d) read back %v", c, got)
		}
	}
	if got := ev.n.Load(); got != want {
		t.Errorf("reading every term back counted %d more evaluations", got-want)
	}
}

// TestSoaPopPanicsOnUnpricedTerm pins price's refresh pass: a term
// still unpriced there would add the sentinel NaN to a row's cost, so
// it panics instead. A model returning the sentinel pattern itself is
// the one way to leave a cell unpriced after the collect pass.
func TestSoaPopPanicsOnUnpricedTerm(t *testing.T) {
	ops := make([]model.Op, 2)
	space := make([]parallel.Config, 3)
	ev := newEvaluator(sentinelModel{}, ops, space)
	sp := newSoaPop(ev, 2, len(ops))
	sp.markAllDirty()
	mustPanic(t, func() { sp.price(1) })
}

// sentinelModel prices every intra term at the unpriced bit pattern.
type sentinelModel struct{}

func (sentinelModel) Intra(model.Op, parallel.Config) float64 {
	return math.Float64frombits(unpriced)
}
func (sentinelModel) Inter(_, _ model.Op, _, _ parallel.Config) float64 { return 1 }
func (sentinelModel) MemoryOK(parallel.Config) bool                     { return true }

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	f()
}
