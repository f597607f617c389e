package main

import (
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"runtime"
	"syscall"
	"time"

	"temp/internal/baselines"
	"temp/internal/distrib"
	"temp/internal/engine"
	"temp/internal/fault"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/spec"
)

// The campaign workload is the Fig. 20 survivability study at service
// scale: set-up maps every zoo model on wsc-4x8 (baselines.Best) and
// attaches a distrib.Fabric of worker processes; one op is one
// fault.Campaign over the default 5x3 grid, run on the fabric. Every
// trial prices a freshly interned degraded topology, so lowering
// templates and per-topology memos are never reused and the engine
// memo is bypassed.

func runCampaign(o options) (*report, error) { return runBatch(o, "campaign") }

// traceDirEnv tells a worker process to profile itself into a
// directory until the coordinator asks it to flush (SIGUSR1).
const traceDirEnv = "BENCH_WORKER_TRACE_DIR"

// cmdWorker is a fabric worker: the harness re-invoked as `bench
// worker`, serving shards over stdio with a one-worker engine.
func cmdWorker() error {
	engine.SetWorkers(1)
	if dir := os.Getenv(traceDirEnv); dir != "" {
		path := filepath.Join(dir, fmt.Sprintf("worker-%d.pprof", os.Getpid()))
		stop, err := startProfile(path)
		if err != nil {
			return err
		}
		flush := make(chan os.Signal, 1)
		signal.Notify(flush, syscall.SIGUSR1)
		go func() {
			<-flush
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "bench worker: profile:", err)
				return
			}
			// The rename publishes the counters only once complete.
			if err := writeJSON(path+".tmp", readCounters()); err != nil {
				fmt.Fprintln(os.Stderr, "bench worker: counters:", err)
				return
			}
			if err := os.Rename(path+".tmp", path+".json"); err != nil {
				fmt.Fprintln(os.Stderr, "bench worker: counters:", err)
			}
		}()
	}
	return distrib.ServeStdio()
}

func campaignRep(job childJob) (repResult, error) {
	nproc := runtime.GOMAXPROCS(0)
	engine.SetWorkers(nproc)
	var rr repResult
	ops, verify := campaignInputs(job.Seed, job.Smoke)
	w, err := spec.LookupWafer(campaignWafer)
	if err != nil {
		return rr, err
	}
	sys := baselines.TEMP()
	models := map[string]model.Config{}
	configs := map[string]parallel.Config{}
	for _, name := range campaignModels(job.Smoke) {
		m, err := spec.LookupModel(name)
		if err != nil {
			return rr, err
		}
		best, err := baselines.Best(sys, m, w)
		if err != nil {
			return rr, err
		}
		models[name], configs[name] = m, best.Config
	}
	campaign := func(op campaignOp, workers int) fault.Campaign {
		return fault.Campaign{
			Model: models[op.Model], Wafer: w, Config: configs[op.Model], Opts: sys.Opts,
			Trials: op.Trials, Seed: op.Seed, Workers: workers,
		}
	}

	exe, err := os.Executable()
	if err != nil {
		return rr, err
	}
	var env []string
	if job.Trace {
		env = []string{traceDirEnv + "=" + job.Dir}
	}
	attachStart := time.Now()
	fab, err := distrib.New(distrib.Options{Workers: nproc, Command: []string{exe, "worker"}, Env: env})
	attach := time.Since(attachStart)
	if err != nil || fab.Live() != nproc {
		fab.Shutdown()
		return rr, fmt.Errorf("fabric attached %d of %d workers: %v", fab.Live(), nproc, err)
	}
	defer fab.Shutdown()
	var pids []int
	for _, ws := range fab.Snapshot().Workers {
		pids = append(pids, ws.PID)
	}

	tr, stopTrace, err := beginTrace(job)
	if err != nil {
		return rr, err
	}
	workerCPU0, err := sumProcs(pids, procCPUNS)
	if err != nil {
		return rr, err
	}
	results := make([]fault.CampaignResult, len(ops))
	errs := make([]error, len(ops))
	m := startMeter()
	rr.StartNS = m.start.UnixNano()
	for i, op := range ops {
		t0 := time.Now()
		sp := tr.begin("fault.campaign", i, -1)
		results[i], errs[i] = campaign(op, 1).RunOn(fab)
		tr.end(sp)
		rr.OpNS = append(rr.OpNS, time.Since(t0).Nanoseconds())
	}
	var selfCPU int64
	rr.TimedNS, selfCPU = m.stop()
	workerCPU1, err := sumProcs(pids, procCPUNS)
	if err != nil {
		return rr, err
	}
	rr.CPUNS = selfCPU + workerCPU1 - workerCPU0
	workerRSS, err := sumProcs(pids, procPeakRSSKB)
	if err != nil {
		return rr, err
	}
	rr.RSSKB = maxRSSKB() + workerRSS
	var workers counters
	var workerProfiles []string
	if tr != nil {
		if workers, workerProfiles, err = flushWorkers(job.Dir, pids); err != nil {
			return rr, err
		}
	}
	st := fab.Shutdown()

	trials, functional := 0, 0.0
	for i, op := range ops {
		rr.Attempted++
		if errs[i] != nil {
			rr.fail("campaign %d (%s): %v", i, op.Model, errs[i])
			continue
		}
		for _, c := range results[i].Cells {
			trials += results[i].Trials
			functional += c.FunctionalRate * float64(results[i].Trials)
		}
	}
	rr.Attempted++
	if again, err := campaign(ops[verify], nproc).Run(); err != nil {
		rr.fail("in-process re-run of campaign %d: %v", verify, err)
	} else if !reflect.DeepEqual(again, results[verify]) {
		rr.fail("in-process re-run of campaign %d differs from the fabric result", verify)
	}
	if tr != nil {
		if err := stopTrace(&rr, len(ops), workers); err != nil {
			return rr, err
		}
		rr.Profiles = append(rr.Profiles, workerProfiles...)
		var busy, stealWait int64
		for _, ws := range st.Workers {
			busy += ws.BusyNS
			stealWait += ws.StealWaitNS
		}
		rr.Layer["distrib.attach_share"] = ratio(float64(attach), float64(rr.StartNS-job.SpawnNS))
		rr.Layer["distrib.busy_share"] = ratio(float64(busy), float64(len(st.Workers))*float64(rr.TimedNS))
		rr.Layer["distrib.steal_wait_share"] = ratio(float64(stealWait), float64(busy))
		rr.Layer["distrib.shards_per_op"] = float64(st.Shards) / float64(len(ops))
		rr.Layer["distrib.stolen_ratio"] = ratio(float64(st.Stolen), float64(st.Shards))
		rr.Layer["distrib.requeued"] = float64(st.Requeued)
		rr.Layer["distrib.inprocess_tasks"] = float64(st.InProcessTasks)
		rr.Layer["fault.functional_rate"] = ratio(functional, float64(trials))
		rr.Layer["fault.trials_per_s"] = float64(trials) / (float64(rr.TimedNS) / 1e9)
	}
	rr.Exact = map[string]string{"outputs": digest(results)}
	return rr, nil
}

// sumProcs sums a /proc reading over processes.
func sumProcs(pids []int, read func(int) (int64, error)) (int64, error) {
	var sum int64
	for _, pid := range pids {
		v, err := read(pid)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// flushWorkers asks traced workers to stop profiling and publish their
// counters, and waits until each has.
func flushWorkers(dir string, pids []int) (counters, []string, error) {
	var sum counters
	var profiles []string
	for _, pid := range pids {
		if err := syscall.Kill(pid, syscall.SIGUSR1); err != nil {
			return sum, nil, fmt.Errorf("signal worker %d: %w", pid, err)
		}
	}
	for _, pid := range pids {
		path := filepath.Join(dir, fmt.Sprintf("worker-%d.pprof", pid))
		var c counters
		deadline := time.Now().Add(10 * time.Second)
		for {
			err := readJSON(path+".json", &c)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return sum, nil, fmt.Errorf("worker %d published no counters: %w", pid, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		sum = sum.plus(c, 1)
		profiles = append(profiles, path)
	}
	return sum, profiles, nil
}
