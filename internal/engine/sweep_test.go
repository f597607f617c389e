package engine

import (
	"runtime"
	"testing"

	"temp/internal/cost"
)

// TestSweepBatchesMisses: the miss path of a sweep routes through the
// batched pricing kernels, and repeat sweeps batch nothing.
func TestSweepBatchesMisses(t *testing.T) {
	jobs := testJobs(t)
	p := New(4)
	p.Sweep(jobs)
	s1 := p.Cache().Stats()
	if s1.BatchCalls == 0 {
		t.Fatalf("cold sweep used no batched pricing calls: %+v", s1)
	}
	if s1.BatchedJobs != s1.Misses {
		t.Errorf("batched %d jobs but recorded %d misses", s1.BatchedJobs, s1.Misses)
	}
	p.Sweep(jobs)
	s2 := p.Cache().Stats()
	if s2.BatchCalls != s1.BatchCalls || s2.BatchedJobs != s1.BatchedJobs {
		t.Errorf("warm sweep batched more work: %+v → %+v", s1, s2)
	}

	// EvaluateJob is a sweep of one: its miss is one batch call of one
	// job, and a later sweep of the job hits.
	j := jobs[0]
	j.Model.Name = "evaluate-probe"
	if _, err := p.EvaluateJob(j); err != nil {
		t.Fatal(err)
	}
	s3 := p.Cache().Stats()
	if s3.Misses != s2.Misses+1 || s3.Hits != s2.Hits ||
		s3.BatchCalls != s2.BatchCalls+1 || s3.BatchedJobs != s2.BatchedJobs+1 {
		t.Errorf("EvaluateJob miss: %+v → %+v, want one miss, batch call and batched job", s2, s3)
	}
	p.Sweep([]Job{j})
	s4 := p.Cache().Stats()
	if s4.Hits != s3.Hits+1 || s4.Misses != s3.Misses || s4.BatchCalls != s3.BatchCalls {
		t.Errorf("sweep after EvaluateJob: %+v → %+v, want one hit", s3, s4)
	}
}

// TestSweepHitAllocs pins the warm hit path, which served pool sweeps
// run on every request: a sweep whose jobs are all memoized allocates
// its result and normalized-job slices and nothing else. So does a
// sweep on a pool attached to a memo of its jobs, both the first,
// which the disk memo's records serve, and the second, whose jobs are
// memory hits.
func TestSweepHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the hit path")
	}
	jobs := testJobs(t)
	p := New(4)
	dir := t.TempDir()
	d, err := p.AttachDiskMemo(dir)
	if err != nil {
		t.Fatal(err)
	}
	p.Sweep(jobs)
	d.Close()
	for _, n := range []int{1, 8, 32} {
		if n > len(jobs) {
			t.Fatalf("need %d jobs, have %d", n, len(jobs))
		}
		batch := jobs[:n]
		avg := testing.AllocsPerRun(50, func() { p.Sweep(batch) })
		if avg > 2 {
			t.Errorf("warm sweep of %d jobs allocates %.1f objects/op, want ≤ 2", n, avg)
		}

		warm := New(4)
		wd, err := warm.AttachDiskMemo(dir)
		if err != nil {
			t.Fatal(err)
		}
		for pass, want := range []Stats{{DiskHits: int64(n)}, {Hits: int64(n), DiskHits: int64(n)}} {
			if got := mallocs(func() { warm.Sweep(batch) }); got > 2 {
				t.Errorf("sweep %d of %d jobs on a warm disk memo allocates %d objects, want ≤ 2", pass+1, n, got)
			}
			if s := warm.Cache().Stats(); s.Hits != want.Hits || s.DiskHits != want.DiskHits || s.Misses != 0 {
				t.Errorf("sweep %d of %d jobs on a warm disk memo: %d hits, %d disk hits, %d misses; want %d, %d, 0",
					pass+1, n, s.Hits, s.DiskHits, s.Misses, want.Hits, want.DiskHits)
			}
		}
		wd.Close()
	}
}

// mallocs returns the heap allocations one call of f makes, counted
// on one thread as testing.AllocsPerRun does.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSweepDuplicateJobs: duplicate jobs in one sweep share one
// pricing and count one miss plus hits, same as sequential Evaluate
// calls would.
func TestSweepDuplicateJobs(t *testing.T) {
	jobs := testJobs(t)[:4]
	dup := append(append([]Job(nil), jobs...), jobs...)
	p := New(4)
	res := p.Sweep(dup)
	s := p.Cache().Stats()
	if s.Misses != int64(len(jobs)) {
		t.Errorf("%d misses for %d distinct jobs", s.Misses, len(jobs))
	}
	if s.Hits != int64(len(jobs)) {
		t.Errorf("%d hits for %d duplicate jobs", s.Hits, len(jobs))
	}
	for i := range jobs {
		a, b := res[i], res[i+len(jobs)]
		if !sameResult(a, b) {
			t.Errorf("job %d: duplicate results differ", i)
		}
	}
}

// TestSweepMixedBackends: one sweep over several tiers groups misses
// per backend family and each job gets its own tier's result.
func TestSweepMixedBackends(t *testing.T) {
	base := testJobs(t)[:3]
	var jobs []Job
	for _, be := range []string{"", "analytic", "replay"} {
		for _, j := range base {
			j.Backend = be
			jobs = append(jobs, j)
		}
	}
	p := New(4)
	res := p.Sweep(jobs)
	for i, j := range jobs {
		be, err := cost.NewBackend(j.Backend)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := be.Price(j.Model, j.Wafer, j.Config.Normalize(), j.Opts)
		if (res[i].Err == nil) != (wantErr == nil) {
			t.Fatalf("job %d (%q): err %v want %v", i, j.Backend, res[i].Err, wantErr)
		}
		if wantErr == nil && res[i].Breakdown.StepTime != want.StepTime {
			t.Errorf("job %d (%q): sweep diverged from direct backend pricing", i, j.Backend)
		}
	}
	// "" and "analytic" canonicalize to one family; replay is its own.
	if s := p.Cache().Stats(); s.Misses != int64(2*len(base)) {
		t.Errorf("%d misses, want %d (two distinct tiers)", s.Misses, 2*len(base))
	}
}
