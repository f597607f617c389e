package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"temp/internal/distrib"
	"temp/internal/sim"
	"temp/internal/solver"
	"temp/internal/spec"
)

// Options configures a Server.
type Options struct {
	// MaxConcurrent bounds simultaneously running solves (default:
	// engine worker count is a good choice — the caller decides).
	MaxConcurrent int
	// MaxQueue bounds solves waiting for a slot; a request beyond
	// MaxConcurrent+MaxQueue gets 503 + Retry-After.
	MaxQueue int
	// Fabric, when non-nil, fans multi-scenario non-streamed requests
	// out over the distributed worker fabric.
	Fabric *distrib.Fabric
	// MaxBody bounds request-body size (default 4 MiB).
	MaxBody int64
	// CheckpointDir, when set, enables best-so-far checkpoint capture
	// on every solve: the latest per-scenario solver checkpoint is
	// held in memory and persisted here (one <request-id>.checkpoint.json
	// per solve cancelled mid-flight) when the server drains.
	CheckpointDir string
}

// Server is the mapping service: an http.Handler exposing
// POST /v1/solve, GET /metrics and GET /healthz over one shared
// evaluation engine.
type Server struct {
	opts  Options
	sched *Scheduler
	mux   *http.ServeMux
	start time.Time
	seq   atomic.Int64

	// reqTotal/reqErrors count HTTP-level outcomes for /metrics.
	reqTotal  atomic.Int64
	reqErrors atomic.Int64
	streamed  atomic.Int64
	// startEngine baselines the engine counters at construction so
	// /metrics can report this server's own traffic even when the
	// process ran other work first (tests, warmup).
	startEngine startCounters

	// draining flips when Drain begins: new solves get 503 +
	// Retry-After while in-flight ones run to completion (or are
	// cancelled when the grace period lapses).
	draining      atomic.Bool
	drainRejected atomic.Int64
	// canceledSolves counts solves cut short by client disconnect or
	// drain-grace expiry.
	canceledSolves atomic.Int64

	// inflight tracks running solves so Drain can cancel stragglers
	// and persist their best-so-far checkpoints.
	inflightMu sync.Mutex
	inflight   map[int64]*inflightSolve
}

// inflightSolve is one running solve's drain handle: its cancel
// function plus the latest checkpoint per scenario (recorded only
// when Options.CheckpointDir is set).
type inflightSolve struct {
	id     int64
	reqID  string
	tenant string
	cancel context.CancelFunc

	mu  sync.Mutex
	cps map[string]solver.Checkpoint
}

// record stores the newest checkpoint for a scenario.
func (in *inflightSolve) record(scenario string, cp solver.Checkpoint) {
	in.mu.Lock()
	in.cps[scenario] = cp
	in.mu.Unlock()
}

// snapshot copies the recorded checkpoints.
func (in *inflightSolve) snapshot() map[string]solver.Checkpoint {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]solver.Checkpoint, len(in.cps))
	for k, v := range in.cps {
		out[k] = v
	}
	return out
}

type startCounters struct {
	hits, misses, diskHits int64
}

// New builds a Server over the shared engine.
func New(opts Options) *Server {
	if opts.MaxConcurrent < 1 {
		opts.MaxConcurrent = 1
	}
	if opts.MaxBody <= 0 {
		opts.MaxBody = 4 << 20
	}
	es := engineSnapshot()
	s := &Server{
		opts:        opts,
		sched:       NewScheduler(opts.MaxConcurrent, opts.MaxQueue),
		mux:         http.NewServeMux(),
		start:       time.Now(),
		startEngine: startCounters{hits: es.Hits, misses: es.Misses, diskHits: es.DiskHits},
		inflight:    map[int64]*inflightSolve{},
	}
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Scheduler exposes the admission controller (tests, metrics).
func (s *Server) Scheduler() *Scheduler { return s.sched }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// fail writes the JSON error envelope.
func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.reqErrors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.reqTotal.Add(1)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, http.StatusMethodNotAllowed, errors.New("serve: POST required"))
		return
	}
	if s.draining.Load() {
		s.drainRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusServiceUnavailable, errors.New("serve: draining, retry elsewhere"))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxBody+1))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if int64(len(body)) > s.opts.MaxBody {
		s.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("serve: request body over %d bytes", s.opts.MaxBody))
		return
	}
	req, err := spec.ParseRequest(body)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Validate(); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if req.ID == "" {
		req.ID = fmt.Sprintf("r%d", s.seq.Add(1))
	}

	release, wait, err := s.sched.Admit(r.Context(), req.Tenant)
	if err != nil {
		var o *Overloaded
		if errors.As(err, &o) {
			w.Header().Set("Retry-After", strconv.Itoa(int(o.RetryAfter/time.Second)))
			s.fail(w, http.StatusServiceUnavailable, o)
			return
		}
		// Client went away while queued.
		s.fail(w, 499, err)
		return
	}
	defer release()

	// The solve context descends from the request context, so a client
	// hanging up propagates down through the solver budget checks and
	// into fabric shard cancellation; Drain holds the same cancel to
	// cut stragglers loose when the grace period lapses.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	inf := s.track(req, cancel)
	defer s.untrack(inf, ctx)

	if req.Stream {
		s.solveStream(ctx, w, req, wait, inf)
		return
	}
	s.solveOnce(ctx, w, req, wait, inf)
}

// track registers a running solve for drain bookkeeping.
func (s *Server) track(req spec.RequestSpec, cancel context.CancelFunc) *inflightSolve {
	in := &inflightSolve{
		id: s.seq.Add(1), reqID: req.ID, tenant: req.Tenant,
		cancel: cancel, cps: map[string]solver.Checkpoint{},
	}
	s.inflightMu.Lock()
	s.inflight[in.id] = in
	s.inflightMu.Unlock()
	return in
}

// untrack removes a finished solve and counts it as cancelled when
// its context ended before completion.
func (s *Server) untrack(in *inflightSolve, ctx context.Context) {
	s.inflightMu.Lock()
	delete(s.inflight, in.id)
	s.inflightMu.Unlock()
	if ctx.Err() != nil {
		s.canceledSolves.Add(1)
	}
}

// checkpointHook returns the per-scenario checkpoint recorder when
// checkpoint capture is on (Options.CheckpointDir set), else nil so
// solves keep their spec-declared checkpoint cadence untouched.
func (s *Server) checkpointHook(in *inflightSolve) func(string, solver.Checkpoint) {
	if s.opts.CheckpointDir == "" {
		return nil
	}
	return func(scenario string, cp solver.Checkpoint) { in.record(scenario, cp) }
}

// solveOnce runs a request to completion and writes one JSON
// document.
func (s *Server) solveOnce(ctx context.Context, w http.ResponseWriter, req spec.RequestSpec, wait time.Duration, inf *inflightSolve) {
	started := time.Now()
	resp := Response{ID: req.ID, Tenant: req.Tenant, QueueWaitNS: wait.Nanoseconds()}

	// Multi-scenario requests fan out over the fabric when one is
	// attached; single scenarios and streamed solves stay in-process
	// (results are bit-identical either way).
	if fab := s.opts.Fabric; fab != nil && fab.Live() > 0 && len(req.Specs()) > 1 {
		resp.Results = toWire(sim.RunScenarioSpecs(ctx, fab, clampedSpecs(req)))
		resp.Distributed = true
	} else {
		scs, err := resolveRequest(req, s.checkpointHook(inf))
		if err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		resp.Results = toWire(sim.RunScenarios(ctx, scs))
	}
	if ctx.Err() != nil {
		// Client gone or drain cut us off — nobody is reading the body.
		s.fail(w, 499, ctx.Err())
		return
	}
	resp.ElapsedNS = sinceNS(started)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// solveStream runs a request with live best-so-far streaming over
// Server-Sent Events: one "checkpoint" event per solver snapshot,
// one final "done" event carrying the same Response document the
// non-streamed path returns.
func (s *Server) solveStream(ctx context.Context, w http.ResponseWriter, req spec.RequestSpec, wait time.Duration, inf *inflightSolve) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, http.StatusNotImplemented, errors.New("serve: streaming unsupported by this connection"))
		return
	}
	s.streamed.Add(1)
	started := time.Now()

	// Checkpoints fire from solver goroutines — the portfolio races
	// strategies concurrently, and scenarios solve in parallel — so
	// every SSE write goes through one mutex.
	var mu sync.Mutex
	writeEvent := func(event string, v any) {
		buf, err := json.Marshal(v)
		if err != nil {
			return
		}
		mu.Lock()
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, buf)
		flusher.Flush()
		mu.Unlock()
	}

	record := s.checkpointHook(inf)
	scs, err := resolveRequest(req, func(scenario string, cp solver.Checkpoint) {
		if record != nil {
			record(scenario, cp)
		}
		writeEvent("checkpoint", CheckpointEvent{Scenario: scenario, Checkpoint: cp})
	})
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	results := sim.RunScenarios(ctx, scs)
	resp := Response{
		ID: req.ID, Tenant: req.Tenant,
		Results:     toWire(results),
		QueueWaitNS: wait.Nanoseconds(),
		ElapsedNS:   sinceNS(started),
	}
	writeEvent("done", resp)
}
