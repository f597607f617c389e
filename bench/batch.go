package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// Batch workloads (sweep, search, campaign) run each repetition in a
// fresh child process: the harness re-executes itself as `bench child`.
// The mesh interner, lowering templates, per-topology memos and the
// engine memo are process-global, and a command-line user pays them
// cold on every run, so a repetition must too.

// childJob tells a child which repetition to run.
type childJob struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Smoke    bool   `json:"smoke"`
	Trace    bool   `json:"trace"`
	// Dir receives a traced repetition's CPU profiles.
	Dir string `json:"dir,omitempty"`
	// SpawnNS is the wall clock (Unix ns) just before the child was
	// started: set-up time runs from here.
	SpawnNS int64 `json:"spawn_ns"`
}

// tally counts attempted and failed ops and output checks.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

// maxFailures bounds the failure messages kept.
const maxFailures = 20

// fail records a failed op or output check.
func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if len(t.Failures) < maxFailures {
		t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
	}
}

// merge adds another tally's counts.
func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	for _, f := range o.Failures {
		if len(t.Failures) < maxFailures {
			t.Failures = append(t.Failures, f)
		}
	}
}

// repResult is what a child reports about its repetition.
type repResult struct {
	tally
	// StartNS is the wall clock (Unix ns) at which set-up ended and the
	// first timed op could start.
	StartNS int64 `json:"start_ns"`
	// TimedNS is the timed phase's wall time; OpNS each op's latency.
	TimedNS int64   `json:"timed_ns"`
	OpNS    []int64 `json:"op_ns"`
	// CPUNS is the user+system CPU of every working process during the
	// timed phase; RSSKB their peak resident memory.
	CPUNS int64 `json:"cpu_ns"`
	RSSKB int64 `json:"rss_kb"`
	// Exact summarizes the outputs (see report.Exact).
	Exact map[string]string `json:"exact"`
	// Traced repetitions only: per-layer values measured in the child,
	// the CPU profiles it wrote, and its spans.
	Layer    map[string]float64 `json:"layer,omitempty"`
	Profiles []string           `json:"profiles,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
}

// opsPerSec is the repetition's throughput.
func (r repResult) opsPerSec() float64 {
	return ratio(float64(len(r.OpNS)), float64(r.TimedNS)/1e9)
}

// cmdChild runs one repetition described on stdin and writes its
// repResult to stdout.
func cmdChild() error {
	var job childJob
	if err := json.NewDecoder(os.Stdin).Decode(&job); err != nil {
		return fmt.Errorf("child job: %w", err)
	}
	var rr repResult
	var err error
	switch job.Workload {
	case "sweep":
		rr, err = sweepRep(job)
	case "search":
		rr, err = searchRep(job)
	case "campaign":
		rr, err = campaignRep(job)
	default:
		err = fmt.Errorf("child: unknown workload %q", job.Workload)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rr)
}

// spawnRep runs one repetition in a fresh child and returns its result
// and set-up time: from spawn until the first timed op could start.
func spawnRep(job childJob) (repResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return repResult{}, 0, err
	}
	job.SpawnNS = time.Now().UnixNano()
	in, err := json.Marshal(job)
	if err != nil {
		return repResult{}, 0, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, "child")
	cmd.Stdin, cmd.Stdout, cmd.Stderr = bytes.NewReader(in), &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return repResult{}, 0, fmt.Errorf("repetition: %w", err)
	}
	var rr repResult
	if err := json.Unmarshal(out.Bytes(), &rr); err != nil {
		return repResult{}, 0, fmt.Errorf("repetition output: %w", err)
	}
	return rr, float64(rr.StartNS-job.SpawnNS) / 1e9, nil
}

// minOps is the pooled op count the 90th-percentile latency needs: ten
// samples beyond it.
const minOps = 100

// runBatch runs fresh-process repetitions of a batch workload until
// the timed budget is spent and enough ops were timed, then reports the
// end-to-end metrics. A traced run instead times one untraced and one
// traced repetition and reports the per-layer metrics.
func runBatch(o options, workload string) (*report, error) {
	dir, err := os.MkdirTemp("", "bench-"+workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	job := childJob{Workload: workload, Seed: o.seed, Smoke: o.smoke}
	rep := &report{Metrics: map[string]value{}}
	var reps []repResult
	var setups []float64
	spent, ops := 0.0, 0
	for {
		rr, setup, err := spawnRep(job)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rr)
		setups = append(setups, setup)
		secs := float64(rr.TimedNS) / 1e9
		spent += secs
		ops += len(rr.OpNS)
		// Stop once one more repetition would end further past the
		// budget than stopping now falls short of it.
		if o.trace || o.smoke || (spent+secs/2 >= o.seconds && ops >= minOps) {
			break
		}
	}
	for _, rr := range reps {
		rep.absorb(rr)
	}
	if !o.trace {
		rep.Metrics = batchMetrics(reps, setups)
		return rep, nil
	}
	job.Trace, job.Dir = true, dir
	tr, _, err := spawnRep(job)
	if err != nil {
		return nil, err
	}
	rep.absorb(tr)
	if err := profileShares(tr.Profiles, tr.Layer); err != nil {
		return nil, err
	}
	tr.Layer["trace.overhead_ratio"] = ratio(reps[0].opsPerSec(), tr.opsPerSec())
	rep.Metrics = layerValues(tr.Layer)
	rep.Spans = tr.Spans
	return rep, nil
}

// absorb folds a repetition's checks into the report; every
// repetition runs the same inputs, so their exact outputs must agree.
func (r *report) absorb(rr repResult) {
	r.merge(rr.tally)
	if r.Exact == nil {
		r.Exact = rr.Exact
		return
	}
	for k, v := range rr.Exact {
		if r.Exact[k] != v {
			r.fail("repetitions disagree on %s: %s vs %s", k, r.Exact[k], v)
		}
	}
}

// batchMetrics computes the end-to-end metrics of batch repetitions:
// per-repetition values reported as their median, latencies pooled.
func batchMetrics(reps []repResult, setups []float64) map[string]value {
	var rate, cpu, rss, lat []float64
	for _, rr := range reps {
		rate = append(rate, rr.opsPerSec())
		cpu = append(cpu, float64(rr.CPUNS)/1e6/float64(len(rr.OpNS)))
		rss = append(rss, float64(rr.RSSKB)/1024)
		for _, ns := range rr.OpNS {
			lat = append(lat, float64(ns)/1e6)
		}
	}
	return map[string]value{
		"setup_s":       median(setups, "s"),
		"ops_per_s":     median(rate, "op/s"),
		"op_p50_ms":     percentile(lat, 0.5, "ms"),
		"op_p90_ms":     percentile(lat, 0.9, "ms"),
		"cpu_ms_per_op": median(cpu, "ms"),
		"peak_rss_mib":  median(rss, "MiB"),
	}
}

// digest fingerprints a repetition's outputs.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	h := fnv.New64a()
	h.Write(b)
	return strconv.FormatUint(h.Sum64(), 16)
}

// meter times a phase: wall clock and this process's CPU.
type meter struct {
	start time.Time
	cpu   int64
}

func startMeter() meter { return meter{start: time.Now(), cpu: cpuSelfNS()} }

// stop returns the phase's wall and CPU nanoseconds.
func (m meter) stop() (wallNS, cpuNS int64) {
	return time.Since(m.start).Nanoseconds(), cpuSelfNS() - m.cpu
}

// beginTrace starts a traced repetition's recording: spans, a CPU
// profile and counter baselines. The returned stop function ends it
// and fills the repetition's counter-based layer metrics, adding other
// processes' counter increases (campaign workers). An untraced job
// gets a nil tracer and a nil stop.
func beginTrace(job childJob) (*tracer, func(rr *repResult, ops int, others counters) error, error) {
	if !job.Trace {
		return nil, nil, nil
	}
	path := filepath.Join(job.Dir, job.Workload+"-child.pprof")
	stopProfile, err := startProfile(path)
	if err != nil {
		return nil, nil, err
	}
	c0 := readCounters()
	tr := &tracer{}
	return tr, func(rr *repResult, ops int, others counters) error {
		if err := stopProfile(); err != nil {
			return err
		}
		rr.Profiles = append(rr.Profiles, path)
		rr.Layer = map[string]float64{}
		readCounters().plus(c0, -1).plus(others, 1).layer(ops, rr.Layer)
		rr.Spans = tr.spans
		return nil
	}, nil
}
