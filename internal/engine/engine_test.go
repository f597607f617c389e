package engine

import (
	"sync"
	"testing"
	"time"

	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
)

func testJobs(t testing.TB) []Job {
	t.Helper()
	w := hw.EvaluationWafer()
	m := model.Llama2_7B()
	cfgs := parallel.EnumerateConfigs(w.Dies(), true, 0)
	jobs := make([]Job, 0, len(cfgs))
	for _, cfg := range cfgs {
		jobs = append(jobs, Job{Model: m, Wafer: w, Config: cfg, Opts: cost.TEMPOptions()})
	}
	if len(jobs) < 8 {
		t.Fatalf("config space too small for a meaningful sweep: %d", len(jobs))
	}
	return jobs
}

// TestSweepMatchesDirectEvaluate checks a parallel sweep returns, in
// input order, exactly what serial cost.Evaluate calls return.
func TestSweepMatchesDirectEvaluate(t *testing.T) {
	jobs := testJobs(t)
	res := New(8).Sweep(jobs)
	if len(res) != len(jobs) {
		t.Fatalf("sweep returned %d results for %d jobs", len(res), len(jobs))
	}
	for i, j := range jobs {
		want, wantErr := cost.Evaluate(j.Model, j.Wafer, j.Config, j.Opts)
		got, gotErr := res[i].Breakdown, res[i].Err
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("job %d: err %v, want %v", i, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if got.StepTime != want.StepTime || got.Memory.Total() != want.Memory.Total() ||
			got.ThroughputTokens != want.ThroughputTokens {
			t.Errorf("job %d (%s): sweep breakdown diverged from direct evaluation", i, j.Config)
		}
		if got.Config != j.Config.Normalize() {
			t.Errorf("job %d: result config %s out of input order (want %s)", i, got.Config, j.Config)
		}
	}
}

// TestCacheHits checks a repeated sweep is served from the cache.
func TestCacheHits(t *testing.T) {
	jobs := testJobs(t)
	p := New(4)
	p.Sweep(jobs)
	s1 := p.Cache().Stats()
	if s1.Misses == 0 || s1.Entries == 0 {
		t.Fatalf("first sweep recorded no misses: %+v", s1)
	}
	p.Sweep(jobs)
	s2 := p.Cache().Stats()
	if s2.Misses != s1.Misses {
		t.Errorf("second sweep missed: %d → %d misses", s1.Misses, s2.Misses)
	}
	if s2.Hits < s1.Hits+int64(len(jobs)) {
		t.Errorf("second sweep hits %d, want ≥ %d", s2.Hits, s1.Hits+int64(len(jobs)))
	}
}

// TestCacheConcurrentSafety hammers one pool's cache from many
// goroutines over an overlapping job set; run under -race this is the
// data-race proof for the sharded cache. Racing misses on one job may
// price it twice, but only the first publish counts a miss, so the
// counters are exact.
func TestCacheConcurrentSafety(t *testing.T) {
	jobs := testJobs(t)[:16]
	const goroutines, calls = 8, 64
	p := New(4)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				j := jobs[(g+i)%len(jobs)]
				b, err := p.EvaluateJob(j)
				if err != nil {
					t.Errorf("evaluate %s: %v", j.Config, err)
					return
				}
				if b.StepTime <= 0 {
					t.Errorf("evaluate %s: non-positive step time", j.Config)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := p.Cache().Stats()
	if s.Entries != len(jobs) || s.Misses != int64(len(jobs)) {
		t.Errorf("want %d entries and misses, one per distinct job: %+v", len(jobs), s)
	}
	if s.Hits+s.Misses != goroutines*calls || s.DiskHits != 0 {
		t.Errorf("hits %d + misses %d, want %d calls and no disk hits: %+v", s.Hits, s.Misses, goroutines*calls, s)
	}
}

// TestForEachCoversEveryIndexOnce covers the fan-out primitive at
// several worker counts, including the serial degenerate case.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 300
		counts := make([]int32, n)
		var mu sync.Mutex
		ForEach(workers, n, func(i int) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestGlobalBoundHoldsUnderNesting nests Map orchestration three
// deep (the experiments → systems → sweep shape) and checks the
// pool never runs more than its worker count of leaf evaluations
// concurrently — the contract the CLIs' -workers flag promises.
func TestGlobalBoundHoldsUnderNesting(t *testing.T) {
	const workers = 3
	p := New(workers)
	var cur, peak int32
	var mu sync.Mutex
	leaf := func() {
		p.Do(func() {
			mu.Lock()
			cur++
			if cur > peak {
				peak = cur
			}
			mu.Unlock()
			mu.Lock()
			cur--
			mu.Unlock()
		})
	}
	p.Map(4, func(int) {
		p.Map(4, func(int) {
			p.Map(4, func(int) { leaf() })
		})
	})
	if peak > workers {
		t.Errorf("peak concurrent leaf evaluations %d exceeds the %d-worker bound", peak, workers)
	}
	if peak == 0 {
		t.Error("no leaf ever ran")
	}
}

// TestSetWorkersKeepsSharedCache checks retuning the default pool
// does not drop what callers already memoized, nor its coalescer.
func TestSetWorkersKeepsSharedCache(t *testing.T) {
	before := Default().Cache()
	old := Workers()
	co := NewCoalescer(nil, time.Millisecond, 0)
	SetCoalescer(co)
	defer SetCoalescer(nil)
	SetWorkers(3)
	defer SetWorkers(old)
	if Workers() != 3 || cap(Default().sem) != 3 {
		t.Errorf("Workers() = %d, bound %d after SetWorkers(3)", Workers(), cap(Default().sem))
	}
	if Default().Cache() != before {
		t.Error("SetWorkers replaced the shared cache")
	}
	if Default().coal != co {
		t.Error("SetWorkers dropped the shared pool's coalescer")
	}
}

// TestBackendKeyedCache: jobs differing only in backend must occupy
// distinct memo entries with tier-specific results, and equivalent
// backend spellings must share one entry.
func TestBackendKeyedCache(t *testing.T) {
	p := New(2)
	m := model.GPT3_6_7B()
	w := hw.EvaluationWafer()
	cfg := parallel.Config{DP: 2, TP: 2, TATP: 8}
	o := cost.TEMPOptions()

	analytic, err := p.EvaluateJob(Job{Model: m, Wafer: w, Config: cfg, Opts: o})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := p.EvaluateJob(Job{Model: m, Wafer: w, Config: cfg, Opts: o, Backend: "replay"})
	if err != nil {
		t.Fatal(err)
	}
	if replay.StepTime == analytic.StepTime {
		t.Error("replay and analytic backends returned identical step times — cache entries collided")
	}
	stats := p.Cache().Stats()
	if stats.Entries != 2 {
		t.Errorf("expected 2 cache entries (one per tier), have %d", stats.Entries)
	}
	// Equivalent spellings share the entry.
	if _, err := p.EvaluateJob(Job{Model: m, Wafer: w, Config: cfg, Opts: o, Backend: "Replay@seed=3"}); err != nil {
		t.Fatal(err)
	}
	if got := p.Cache().Stats().Entries; got != 2 {
		t.Errorf("equivalent backend spelling created a new entry (%d total)", got)
	}
	if _, err := p.EvaluateJob(Job{Model: m, Wafer: w, Config: cfg, Opts: o, Backend: "no-such-tier"}); err == nil {
		t.Error("unknown backend evaluated")
	}
}

// TestDefaultBackendRetarget: SetDefaultBackend reroutes jobs that
// leave Backend empty, without touching explicitly-keyed jobs.
func TestDefaultBackendRetarget(t *testing.T) {
	prev := DefaultBackend()
	if _, err := SetDefaultBackend("replay"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if _, err := SetDefaultBackend(prev); err != nil {
			t.Fatal(err)
		}
	}()
	if DefaultBackend() != "replay" {
		t.Fatalf("default backend %q", DefaultBackend())
	}
	m := model.GPT3_6_7B()
	w := hw.EvaluationWafer()
	cfg := parallel.Config{DP: 2, TP: 2, TATP: 8}
	o := cost.TEMPOptions()
	viaDefault, err := EvaluateJob(Job{Model: m, Wafer: w, Config: cfg, Opts: o})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := cost.NewBackend("replay")
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Price(m, w, cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	if viaDefault.StepTime != want.StepTime {
		t.Errorf("default-backend evaluation %v ≠ direct replay price %v", viaDefault.StepTime, want.StepTime)
	}
	if _, err := SetDefaultBackend("bogus"); err == nil {
		t.Error("unknown default backend accepted")
	}
}
