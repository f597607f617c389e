package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"temp/internal/engine"
	"temp/internal/serve"
	"temp/internal/spec"
)

// The serve workload drives the real tempserve daemon open loop:
// tenants are independent users, so requests arrive on a Poisson
// schedule whatever the daemon's state, and each is timed from when it
// was due. Pool solves load the solver and the request path, pool
// sweeps are memory hits, and the fresh share puts cold pricing, new
// interned topologies, coalescing and disk-memo writes under load.
//
// End-to-end: op_p50_ms and op_p90_ms are latencies at the fixed
// nominal rate; ops_per_s is the saturation throughput, measured
// closed loop with every connection sending back to back.

const (
	// nominalRate is the fixed open-loop rate (requests/s), about 30% of
	// the seed commit's saturation throughput on 2 cores.
	nominalRate = 36.0
	// nominalShare and saturationShare split the timed seconds.
	nominalShare    = 0.7
	saturationShare = 0.3
	// setupRuns is how many times a run starts the daemon; set-up time
	// is their median.
	setupRuns = 3
)

func runServe(o options) (*report, error) {
	nproc := runtime.GOMAXPROCS(0)
	engine.SetWorkers(nproc)
	dir, err := os.MkdirTemp("", "bench-serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	memoDir := filepath.Join(dir, "memo")
	st := newRequestStream(o.seed, o.smoke)
	rep := &report{Metrics: map[string]value{}}

	// Priming (untimed): the pool solved once in-process fills the disk
	// memo every daemon starts from; the answers are the reference
	// served pool requests must match byte for byte.
	dm, err := engine.AttachDiskMemo(memoDir)
	if err != nil {
		return nil, err
	}
	expected := map[string][]byte{}
	for _, q := range st.poolRequests() {
		if expected[q.key()], err = direct(q.Body); err != nil {
			dm.Close()
			return nil, fmt.Errorf("priming %s: %w", q.key(), err)
		}
	}
	engine.Default().SetDiskMemo(nil)
	if err := dm.Close(); err != nil {
		return nil, err
	}
	rep.Exact = map[string]string{"pool_outputs": digest(expected)}
	conns := newConns(nproc)
	defer closeConns(conns)

	if o.trace {
		return traceServe(o, rep, st, expected, memoDir, conns)
	}
	// Each daemon start is followed by its share of the timed traffic, so
	// every metric is a median (or a pool) over setupRuns processes.
	var setups, rates, cpus, rss, lat []float64
	for i := 0; i < setupRuns; i++ {
		d, setup, err := startDaemon(o.tempserve, memoDir, nproc, st, conns, rep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		secs := o.seconds / setupRuns
		seg, err := measureDaemon(d, conns, st,
			arrivals(o.seed, fmt.Sprint("nominal-", i), nominalRate, nominalShare*secs), saturationShare*secs)
		d.stop()
		if err != nil {
			return nil, err
		}
		checkServed(rep, append(append([]sample(nil), seg.nominal...), seg.sat...), expected)
		rates = append(rates, float64(len(seg.sat))/seg.satSecs)
		cpus = append(cpus, float64(seg.cpuNS)/1e6/float64(len(seg.nominal)+len(seg.sat)))
		rss = append(rss, float64(seg.rssKB)/1024)
		for _, s := range seg.nominal {
			if s.err == nil {
				lat = append(lat, s.latency()/1e6)
			}
		}
	}
	rep.Metrics = map[string]value{
		"setup_s":       median(setups, "s"),
		"ops_per_s":     median(rates, "op/s"),
		"op_p50_ms":     percentile(lat, 0.5, "ms"),
		"op_p90_ms":     percentile(lat, 0.9, "ms"),
		"cpu_ms_per_op": median(cpus, "ms"),
		"peak_rss_mib":  median(rss, "MiB"),
	}
	return rep, nil
}

// segment is one daemon's share of the timed traffic.
type segment struct {
	nominal, sat []sample
	satSecs      float64
	cpuNS, rssKB int64
}

// measureDaemon drives a daemon at the nominal rate, then to
// saturation, reading its CPU time and peak memory from /proc.
func measureDaemon(d *daemon, conns []*http.Client, st *requestStream, offsets []float64, satSecs float64) (segment, error) {
	var seg segment
	cpu0, err := procCPUNS(d.pid())
	if err != nil {
		return seg, err
	}
	seg.nominal = openLoop(conns, d.url, st, offsets)
	seg.sat, seg.satSecs = closedLoop(conns, d.url, st, satSecs)
	cpu1, err := procCPUNS(d.pid())
	if err != nil {
		return seg, err
	}
	seg.cpuNS = cpu1 - cpu0
	seg.rssKB, err = procPeakRSSKB(d.pid())
	return seg, err
}

// key names a pool shape.
func (q request) key() string { return fmt.Sprintf("%s-%d", q.Kind, q.Shape) }

// direct solves a request body in-process (serve.RunRequest, the
// handler's own path) and returns its canonical encoding.
func direct(body []byte) ([]byte, error) {
	req, err := spec.ParseRequest(body)
	if err != nil {
		return nil, err
	}
	res, err := serve.RunRequest(req)
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.CanonicalResults(res))
}

// checkServed counts every request and failure, and compares the
// seeded 5% marked Verify against an in-process solve, byte for byte.
func checkServed(rep *report, samples []sample, expected map[string][]byte) {
	for _, s := range samples {
		rep.Attempted++
		if s.err != nil {
			rep.fail("request %d (%s): %v", s.q.Index, s.q.Kind, s.err)
			continue
		}
		if !s.q.Verify {
			continue
		}
		rep.Attempted++
		want, ok := expected[s.q.key()]
		if s.q.Kind == "fresh" || !ok {
			var err error
			if want, err = direct(s.q.Body); err != nil {
				rep.fail("request %d: in-process solve: %v", s.q.Index, err)
				continue
			}
		}
		got, err := json.Marshal(serve.CanonicalResults(s.results))
		if err != nil || !bytes.Equal(got, want) {
			rep.fail("request %d (%s): served results differ from serve.RunRequest", s.q.Index, s.q.Kind)
		}
	}
}

// sample is one timed request.
type sample struct {
	q request
	// due is when the schedule called for the request, gen when the
	// generator released it, sent when a connection took it, done when
	// its response was read.
	due, gen, sent, done time.Time
	// queueNS and handlerNS are the server-reported admission wait and
	// solve time.
	queueNS, handlerNS int64
	status             int
	err                error
	results            []serve.ResultWire
}

// latency is the request's time from due to done (ns).
func (s sample) latency() float64 { return float64(s.done.Sub(s.due)) }

// newConns makes one keep-alive connection per client: the load comes
// from one process over at most nproc connections.
func newConns(n int) []*http.Client {
	conns := make([]*http.Client, n)
	for i := range conns {
		conns[i] = &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   2 * time.Minute,
		}
	}
	return conns
}

func closeConns(conns []*http.Client) {
	for _, c := range conns {
		c.CloseIdleConnections()
	}
}

// send posts one request and records its timing and outcome.
func send(c *http.Client, url string, s *sample) {
	s.sent = time.Now()
	defer func() { s.done = time.Now() }()
	resp, err := c.Post(url+"/v1/solve", "application/json", bytes.NewReader(s.q.Body))
	if err != nil {
		s.err = err
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.status = resp.StatusCode
	if err != nil {
		s.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	var r serve.Response
	if err := json.Unmarshal(body, &r); err != nil {
		s.err = err
		return
	}
	s.queueNS, s.handlerNS = r.QueueWaitNS, r.ElapsedNS
	for _, res := range r.Results {
		if res.Err != "" {
			s.err = fmt.Errorf("scenario %s: %s", res.Name, res.Err)
			return
		}
	}
	if s.q.Verify {
		s.results = r.Results
	}
}

// openLoop releases the next requests of the stream at the given
// offsets (seconds from now), whatever the server's state; a request
// due while every connection is busy waits for one, and that wait
// counts in its latency.
func openLoop(conns []*http.Client, url string, st *requestStream, offsets []float64) []sample {
	samples := make([]sample, len(offsets))
	for i := range samples {
		samples[i].q = st.Next()
	}
	// Sized to every request, so releasing one never blocks the
	// generator.
	queue := make(chan int, len(samples))
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range queue {
				send(c, url, &samples[i])
			}
		}(c)
	}
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(time.Duration(off * float64(time.Second)))
		time.Sleep(time.Until(due))
		samples[i].due, samples[i].gen = due, time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples
}

// closedLoop keeps every connection busy, each sending the stream's
// next request as soon as its previous one is answered, for secs
// seconds. It returns the samples and the seconds until the last
// answer.
func closedLoop(conns []*http.Client, url string, st *requestStream, secs float64) ([]sample, float64) {
	var mu sync.Mutex
	var samples []sample
	start := time.Now()
	end := start.Add(time.Duration(secs * float64(time.Second)))
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for time.Now().Before(end) {
				mu.Lock()
				s := sample{q: st.Next()}
				mu.Unlock()
				s.due = time.Now()
				s.gen = s.due
				send(c, url, &s)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	last := start
	for _, s := range samples {
		if s.done.After(last) {
			last = s.done
		}
	}
	return samples, last.Sub(start).Seconds()
}

// warmUp sends every pool shape once, spread over the connections.
func warmUp(conns []*http.Client, url string, st *requestStream, rep *report) {
	pool := st.poolRequests()
	var wg sync.WaitGroup
	samples := make([]sample, len(pool))
	for k, c := range conns {
		wg.Add(1)
		go func(k int, c *http.Client) {
			defer wg.Done()
			for i := k; i < len(pool); i += len(conns) {
				samples[i].q = pool[i]
				send(c, url, &samples[i])
			}
		}(k, c)
	}
	wg.Wait()
	for _, s := range samples {
		rep.Attempted++
		if s.err != nil {
			rep.fail("warm-up %s: %v", s.q.key(), s.err)
		}
	}
}

// daemon is a running tempserve process.
type daemon struct {
	cmd      *exec.Cmd
	url      string
	exited   chan error
	stopOnce sync.Once
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// startDaemon starts tempserve on the primed memo with nproc engine
// workers and solve slots and the default 2 ms coalescing window, and
// returns once it is healthy and has served a warm-up pass of the pool
// (read back from the disk memo). The set-up time runs from spawn to
// the end of the warm-up.
func startDaemon(bin, memoDir string, nproc int, st *requestStream, conns []*http.Client, rep *report) (*daemon, float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	n := fmt.Sprint(nproc)
	spawn := time.Now()
	cmd := exec.Command(bin, "-listen", addr, "-workers", n, "-max-concurrent", n,
		"-memo-dir", memoDir, "-drain-grace", "1s")
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start tempserve: %w", err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	deadline := spawn.Add(30 * time.Second)
	for {
		resp, err := probe.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			return nil, 0, fmt.Errorf("tempserve exited before it was healthy: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("tempserve not healthy after 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	probe.CloseIdleConnections()
	warmUp(conns, d.url, st, rep)
	return d, time.Since(spawn).Seconds(), nil
}

// stop drains the daemon with SIGTERM and waits for it to exit
// (killing it if it has not within 10 s).
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
	})
}

// traceServe is the serve workload's traced run. The daemon's
// internals are not reachable from outside, so serve.New is hosted
// in-process on loopback with the daemon's settings, driven at the
// nominal rate and then to saturation, with spans, a CPU profile and
// the public counters recorded. A short untraced saturation phase
// against the real daemon first gives trace.overhead_ratio.
func traceServe(o options, rep *report, st *requestStream, expected map[string][]byte, memoDir string, conns []*http.Client) (*report, error) {
	nproc := runtime.GOMAXPROCS(0)
	d, _, err := startDaemon(o.tempserve, memoDir, nproc, st, conns, rep)
	if err != nil {
		return nil, err
	}
	ref, refSecs := closedLoop(conns, d.url, st, saturationShare*o.seconds/2)
	d.stop()
	checkServed(rep, ref, expected)

	dm, err := engine.AttachDiskMemo(memoDir)
	if err != nil {
		return nil, err
	}
	defer func() {
		engine.Default().SetDiskMemo(nil)
		dm.Close()
	}()
	engine.SetCoalescer(engine.NewCoalescer(nil, 2*time.Millisecond, 0))
	defer engine.SetCoalescer(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: serve.New(serve.Options{MaxConcurrent: nproc, MaxQueue: 64})}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Shutdown(context.Background())
		<-served
	}()
	url := "http://" + ln.Addr().String()
	warmUp(conns, url, st, rep)

	profile := filepath.Join(filepath.Dir(memoDir), "serve.pprof")
	stopProfile, err := startProfile(profile)
	if err != nil {
		return nil, err
	}
	c0 := readCounters()
	nominal := openLoop(conns, url, st, arrivals(o.seed, "nominal", nominalRate, nominalShare*o.seconds))
	sat, satSecs := closedLoop(conns, url, st, saturationShare*o.seconds/2)
	delta := readCounters().plus(c0, -1)
	if err := stopProfile(); err != nil {
		return nil, err
	}
	all := append(append([]sample(nil), nominal...), sat...)
	checkServed(rep, all, expected)

	layer := map[string]float64{}
	delta.layer(len(all), layer)
	var total, queue, handler, overhead, clientWait, genLate float64
	var fresh, pool []float64
	rejected := 0
	for _, s := range all {
		if s.status == http.StatusServiceUnavailable {
			rejected++
		}
	}
	for i, s := range nominal {
		rep.Spans = append(rep.Spans, span{Name: "serve.request", Op: i, Parent: -1, Start: s.due.UnixNano(), End: s.done.UnixNano()})
		if s.err != nil {
			continue
		}
		lat := s.latency()
		total += lat
		queue += float64(s.queueNS)
		handler += float64(s.handlerNS)
		overhead += float64(s.done.Sub(s.sent)) - float64(s.queueNS+s.handlerNS)
		clientWait += float64(s.sent.Sub(s.due))
		genLate += float64(s.gen.Sub(s.due))
		if s.q.Kind == "fresh" {
			fresh = append(fresh, lat)
		} else {
			pool = append(pool, lat)
		}
	}
	layer["serve.queue_wait_share"] = ratio(queue, total)
	layer["serve.handler_share"] = ratio(handler, total)
	layer["serve.overhead_share"] = ratio(overhead, total)
	layer["serve.client_wait_share"] = ratio(clientWait, total)
	layer["serve.gen_late_share"] = ratio(genLate, total)
	if len(fresh) > 0 && len(pool) > 0 {
		layer["serve.fresh_to_pool_p50_ratio"] = quantile(sortedCopy(fresh), 0.5) / quantile(sortedCopy(pool), 0.5)
	}
	layer["serve.rejected_503"] = float64(rejected)
	layer["trace.overhead_ratio"] = ratio(float64(len(ref))/refSecs, float64(len(sat))/satSecs)
	if err := profileShares([]string{profile}, layer); err != nil {
		return nil, err
	}
	rep.Metrics = layerValues(layer)
	return rep, nil
}
