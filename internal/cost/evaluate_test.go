package cost

import (
	"reflect"
	"sync"
	"testing"

	"temp/internal/collective"
	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
)

// heldTemplates counts the merged templates an evaluation state holds.
func heldTemplates(st *evalState) int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var n int64
	if st.stream != nil {
		n++
	}
	for _, ct := range st.coll {
		if ct.tmpl != nil {
			n++
		}
	}
	return n
}

// TestStateCompilesEachLoweringOnce pins the one lowering memo: the
// evaluation state is the only place a lowering is compiled. On a fresh
// faulted wsc-4x8 mesh (one dead link, so it shares no state with other
// tests) the first TEMP price of a configuration compiles exactly the
// merged templates its state then holds, a repeat price compiles
// nothing, and 8 goroutines pricing another fresh mesh agree with the
// serial run on every breakdown and on the compile count.
func TestStateCompilesEachLoweringOnce(t *testing.T) {
	w := hw.EvaluationWafer()
	m := model.GPT3_6_7B()
	o := TEMPOptions()
	cfgs := []parallel.Config{{DP: 4, TATP: 8}, {DP: 8, TP: 4}}
	fresh := func() *mesh.Topology {
		c := mesh.FromWafer(w).Clone()
		c.SetLinkAlive(mesh.Link{From: 1, To: 2}, false)
		return c.Intern()
	}
	price := func(topo *mesh.Topology) ([]Breakdown, error) {
		out := make([]Breakdown, len(cfgs))
		for i, cfg := range cfgs {
			b, err := EvaluateOnWith("", m, w, cfg, o, topo, 1)
			if err != nil {
				return nil, err
			}
			out[i] = b
		}
		return out, nil
	}
	compiled := func() int64 { return int64(collective.CacheStats().Templates) }

	topo := fresh()
	serial := make([]Breakdown, len(cfgs))
	var total int64
	for i, cfg := range cfgs {
		before := compiled()
		b, err := EvaluateOnWith("", m, w, cfg, o, topo, 1)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		serial[i] = b
		st, err := stateFor(topo, cfg.Normalize(), false, true)
		if err != nil {
			t.Fatal(err)
		}
		held := heldTemplates(st)
		if held == 0 {
			t.Fatalf("%s: the state holds no template; the fixture checks nothing", cfg)
		}
		if got := compiled() - before; got != held {
			t.Errorf("%s: first price compiled %d templates, its state holds %d", cfg, got, held)
		}
		total += held
	}

	before := compiled()
	again, err := price(topo)
	if err != nil {
		t.Fatal(err)
	}
	if got := compiled() - before; got != 0 {
		t.Errorf("a repeat price compiled %d templates; want 0", got)
	}
	if !reflect.DeepEqual(again, serial) {
		t.Errorf("repeat price\n%+v\nfirst price\n%+v", again, serial)
	}

	const workers = 8
	topo = fresh()
	before = compiled()
	var wg sync.WaitGroup
	got := make([][]Breakdown, workers)
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = price(topo)
		}(g)
	}
	wg.Wait()
	for g := 0; g < workers; g++ {
		if errs[g] != nil {
			t.Fatalf("worker %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(got[g], serial) {
			t.Errorf("worker %d priced\n%+v\nserial run\n%+v", g, got[g], serial)
		}
	}
	if n := compiled() - before; n != total {
		t.Errorf("%d concurrent workers compiled %d templates, the serial run %d", workers, n, total)
	}
}
