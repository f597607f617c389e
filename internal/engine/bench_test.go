package engine

import (
	"testing"

	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
)

// benchJobs is a Fig. 17-shaped sweep: the full TATP-enabled
// configuration space of the evaluation wafer for one 7B model.
func benchJobs() []Job {
	w := hw.EvaluationWafer()
	m := model.Llama2_7B()
	cfgs := parallel.EnumerateConfigs(w.Dies(), true, 0)
	jobs := make([]Job, 0, len(cfgs))
	for _, cfg := range cfgs {
		jobs = append(jobs, Job{Model: m, Wafer: w, Config: cfg, Opts: cost.TEMPOptions()})
	}
	return jobs
}

// BenchmarkSweepSerial evaluates the sweep on one worker with a cold
// cache each iteration — the pre-engine baseline.
func BenchmarkSweepSerial(b *testing.B) {
	jobs := benchJobs()
	b.ReportMetric(float64(len(jobs)), "configs")
	for i := 0; i < b.N; i++ {
		New(1).Sweep(jobs)
	}
}

// BenchmarkSweepParallel evaluates the same cold sweep across
// GOMAXPROCS workers; on a multi-core runner it scales near-linearly
// with cores.
func BenchmarkSweepParallel(b *testing.B) {
	jobs := benchJobs()
	b.ReportMetric(float64(len(jobs)), "configs")
	for i := 0; i < b.N; i++ {
		New(0).Sweep(jobs)
	}
}

// BenchmarkSweepCached measures the steady state the experiment
// runners see when a figure revisits a swept space: pure cache hits.
func BenchmarkSweepCached(b *testing.B) {
	jobs := benchJobs()
	p := New(0)
	p.Sweep(jobs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Sweep(jobs)
	}
}

// BenchmarkAttachDiskMemo measures the disk tier's start-up cost: each
// iteration attaches a memo of 1,024 records into a fresh pool, as a
// tempserve start or a warm CLI run does before serving its first job.
func BenchmarkAttachDiskMemo(b *testing.B) {
	dir := b.TempDir()
	seg := segmentOf(b, dir, 1024)
	b.SetBytes(int64(len(seg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := New(1).AttachDiskMemo(dir)
		if err != nil {
			b.Fatal(err)
		}
		d.Close()
	}
}
