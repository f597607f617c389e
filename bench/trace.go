package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"temp/internal/collective"
	"temp/internal/engine"
)

// span is one timed call the harness made into a layer. Spans of one
// op share Op; Parent indexes the enclosing span (-1 for an op root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A nil tracer records nothing, so the
// untraced path runs the same code.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its handle.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// selfTimes sums each span name's self time: its duration minus the
// part its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += float64(s.End - s.Start - child[i])
	}
	return out
}

// rootTime sums the duration of op root spans.
func rootTime(spans []span) float64 {
	var sum float64
	for _, s := range spans {
		if s.Parent < 0 {
			sum += float64(s.End - s.Start)
		}
	}
	return sum
}

// cpuSelfNS is this process's user+system CPU time.
func cpuSelfNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// maxRSSKB is this process's peak resident set (KiB).
func maxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// times (100 on every Linux architecture Go supports).
const clockTick = 100

// procCPUNS reads another process's user+system CPU time (all its
// threads) from /proc.
func procCPUNS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return (ut + st) * int64(time.Second/clockTick), nil
}

// cpuTicks reads the machine's stolen and total CPU ticks from
// /proc/stat (zeros where it is unreadable).
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// procPeakRSSKB reads another process's peak resident set (VmHWM).
func procPeakRSSKB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// counters is a snapshot of the public counters a traced run reads:
// the engine cache tiers, the collective-lowering cache and the Go
// runtime's allocation and GC totals.
type counters struct {
	Hits, Misses, DiskHits, BatchCalls, BatchedJobs int64
	CoalesceFlushes, CoalescedJobs, CoalesceShared  int64
	LowerHits, LowerMisses, LowerTemplates          int64
	Mallocs, AllocBytes, GCCycles, GCPauseNS        int64
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e, l := engine.CountersSnapshot(), collective.CacheStats()
	return counters{
		Hits: e.Hits, Misses: e.Misses, DiskHits: e.DiskHits, BatchCalls: e.BatchCalls, BatchedJobs: e.BatchedJobs,
		CoalesceFlushes: e.CoalesceFlushes, CoalescedJobs: e.CoalescedJobs, CoalesceShared: e.CoalesceShared,
		LowerHits: l.Hits, LowerMisses: l.Misses, LowerTemplates: int64(l.Templates),
		Mallocs: int64(ms.Mallocs), AllocBytes: int64(ms.TotalAlloc), GCCycles: int64(ms.NumGC), GCPauseNS: int64(ms.PauseTotalNs),
	}
}

// plus returns c + sign*o field by field: sign -1 gives the increase
// from o to c, sign 1 sums two processes' increases.
func (c counters) plus(o counters, sign int64) counters {
	return counters{
		Hits: c.Hits + sign*o.Hits, Misses: c.Misses + sign*o.Misses, DiskHits: c.DiskHits + sign*o.DiskHits,
		BatchCalls: c.BatchCalls + sign*o.BatchCalls, BatchedJobs: c.BatchedJobs + sign*o.BatchedJobs,
		CoalesceFlushes: c.CoalesceFlushes + sign*o.CoalesceFlushes,
		CoalescedJobs:   c.CoalescedJobs + sign*o.CoalescedJobs, CoalesceShared: c.CoalesceShared + sign*o.CoalesceShared,
		LowerHits: c.LowerHits + sign*o.LowerHits, LowerMisses: c.LowerMisses + sign*o.LowerMisses,
		LowerTemplates: c.LowerTemplates + sign*o.LowerTemplates,
		Mallocs:        c.Mallocs + sign*o.Mallocs, AllocBytes: c.AllocBytes + sign*o.AllocBytes,
		GCCycles: c.GCCycles + sign*o.GCCycles, GCPauseNS: c.GCPauseNS + sign*o.GCPauseNS,
	}
}

// layer turns a counter increase over ops into per-layer metrics.
func (c counters) layer(ops int, out map[string]float64) {
	n := float64(ops)
	out["collective.lowering_hits_per_op"] = float64(c.LowerHits) / n
	out["collective.lowering_misses_per_op"] = float64(c.LowerMisses) / n
	out["collective.lowering_hit_ratio"] = ratio(float64(c.LowerHits), float64(c.LowerHits+c.LowerMisses))
	out["collective.templates_per_op"] = float64(c.LowerTemplates) / n
	out["engine.hits_per_op"] = float64(c.Hits) / n
	out["engine.misses_per_op"] = float64(c.Misses) / n
	out["engine.disk_hits_per_op"] = float64(c.DiskHits) / n
	out["engine.hit_ratio"] = ratio(float64(c.Hits+c.DiskHits), float64(c.Hits+c.DiskHits+c.Misses))
	out["engine.batch_calls_per_op"] = float64(c.BatchCalls) / n
	out["engine.mean_batch"] = ratio(float64(c.BatchedJobs), float64(c.BatchCalls))
	out["engine.coalesce_flushes_per_op"] = float64(c.CoalesceFlushes) / n
	out["engine.coalesce_shared_ratio"] = ratio(float64(c.CoalesceShared), float64(c.CoalescedJobs))
	out["runtime.alloc_bytes_per_op"] = float64(c.AllocBytes) / n
	out["runtime.allocs_per_op"] = float64(c.Mallocs) / n
	out["runtime.gc_cycles_per_op"] = float64(c.GCCycles) / n
	out["runtime.gc_pause_ms_per_op"] = float64(c.GCPauseNS) / 1e6 / n
}

// startProfile starts this process's CPU profile into path; the
// returned function stops it and closes the file.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// profileShares attributes the samples of CPU profiles to modules: the
// innermost temp/internal/<module> frame of each sample's stack;
// background GC counts as gc, anything else as other. The profiles are
// read with `go tool pprof -traces`. It sets <module>.cpu_share in
// layer for every profiled module; the shares sum to 1.
func profileShares(paths []string, layer map[string]float64) error {
	weights := map[string]float64{}
	var total float64
	for _, p := range paths {
		out, err := exec.Command("go", "tool", "pprof", "-traces", p).Output()
		if err != nil {
			return fmt.Errorf("go tool pprof -traces %s: %w", p, err)
		}
		for mod, w := range attributeTraces(string(out)) {
			weights[mod] += w
			total += w
		}
	}
	for _, m := range profileModules {
		layer[m+".cpu_share"] = 0
	}
	for mod, w := range weights {
		if _, known := layer[mod+".cpu_share"]; !known {
			mod = "other"
		}
		layer[mod+".cpu_share"] += ratio(w, total)
	}
	return nil
}

// attributeTraces parses `go tool pprof -traces` text into sample time
// (ns) per module.
func attributeTraces(text string) map[string]float64 {
	out := map[string]float64{}
	var weight float64
	mod := ""
	inTrace := false
	flush := func() {
		if inTrace {
			if mod == "" {
				mod = "other"
			}
			out[mod] += weight
		}
		inTrace, mod, weight = false, "", 0
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		frame := fields[len(fields)-1]
		if fields[len(fields)-1] == "(inline)" && len(fields) >= 2 {
			frame = fields[len(fields)-2]
		}
		if !inTrace {
			// A trace starts with its sample value, e.g. "10ms runtime.futex".
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				continue
			}
			inTrace, weight = true, float64(d)
			frame = fields[1]
		}
		if mod != "" {
			continue
		}
		if rest, ok := strings.CutPrefix(frame, "temp/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				mod = rest[:i]
			}
		} else if strings.HasPrefix(frame, "runtime.gcBgMarkWorker") || strings.HasPrefix(frame, "runtime.bgsweep") ||
			strings.HasPrefix(frame, "runtime.bgscavenge") {
			mod = "gc"
		}
	}
	flush()
	return out
}
