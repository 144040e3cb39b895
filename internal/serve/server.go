package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/pricing"
)

// Config bounds a Server. The zero value takes every default.
type Config struct {
	// Addr is the listen address of ListenAndServe ("" means ":8347").
	Addr string
	// PoolSize bounds how many requests may hold a pricing session at
	// once; excess requests queue on the pool until a slot frees or their
	// deadline expires (default 2 × GOMAXPROCS).
	PoolSize int
	// CacheSize is the verdict LRU's entry capacity; 0 means the default
	// (512), negative disables caching.
	CacheSize int
	// MaxN rejects graphs larger than this with 413 (default 4096).
	MaxN int
	// MaxMoves caps a dynamics request's move budget (default 100_000).
	MaxMoves int
	// MaxWorkers caps a request's worker ask and is the default when a
	// request leaves Workers at 0 (default GOMAXPROCS).
	MaxWorkers int
	// DefaultTimeout bounds requests that carry no timeout_ms
	// (default 30s; negative means no default deadline).
	DefaultTimeout time.Duration
	// StorePath, when non-empty, enables the persistent verdict store: an
	// append-only JSONL journal (StoreEntry lines — the certification
	// prefix of the atlas corpus schema) replayed at boot and appended on
	// every cache-miss certification, so a restarted server answers
	// previously certified checks without recomputation.
	StorePath string
	// StoreSeed optionally warm-starts the store's index from an atlas
	// corpus before the journal replays: a JSONL file, or a directory
	// holding atlas.jsonl. The seed is read-only; only StorePath is
	// written.
	StoreSeed string
	// StoreFsyncEvery is the journal durability policy: 0 fsyncs every
	// append (the default — a certified verdict is never lost to a
	// crash), N > 1 fsyncs every Nth append, negative never fsyncs
	// (the OS decides).
	StoreFsyncEvery int
	// StoreMaxBytes compacts the journal (rewriting one line per live
	// verdict) when it grows past this size; 0 never compacts.
	StoreMaxBytes int64
}

const (
	defaultAddr     = ":8347"
	defaultCacheSz  = 512
	defaultMaxN     = 4096
	defaultMaxMoves = 100_000
	defaultTimeout  = 30 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = defaultAddr
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 2 * runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = defaultCacheSz
	}
	if c.MaxN <= 0 {
		c.MaxN = defaultMaxN
	}
	if c.MaxMoves <= 0 {
		c.MaxMoves = defaultMaxMoves
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = defaultTimeout
	}
	return c
}

// Server is the long-lived equilibrium service. It owns the bounded
// session pool (a semaphore over concurrently held pricing sessions, all
// drawing scratch from the warm pricing.Shared engine registry) and the
// verdict table (the LRU and the in-flight certifications), and exposes
// the check / best-response / dynamics operations both as Go methods (the
// CLI's thin-client path) and as HTTP handlers over the same DTOs.
type Server struct {
	cfg      Config
	slots    chan struct{}
	verdicts *verdictTable
	store    *verdictStore // nil without Config.StorePath
	stats    *stats
	// certifyHook, when set, runs on the leader's goroutine immediately
	// before a cache-miss certification — a test seam that lets the storm
	// test hold the one certification until every duplicate has parked on
	// the leader's flight.
	certifyHook func()
}

// NewServer builds a server and warms the shared pricing engine for the
// configured worker budget, so the first request pays no engine setup.
// When Config.StorePath is set, the persistent verdict store is opened
// (seeded, replayed) here; an unusable store path is the only error.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	pricing.Shared(cfg.MaxWorkers)
	store, err := openVerdictStore(cfg)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:      cfg,
		slots:    make(chan struct{}, cfg.PoolSize),
		verdicts: newVerdictTable(cfg.CacheSize),
		store:    store,
		stats:    newStats(),
	}, nil
}

// Config returns the resolved configuration.
func (s *Server) Config() Config { return s.cfg }

// Close releases the server's persistent store handle (a no-op without a
// configured store). In-flight requests are not interrupted.
func (s *Server) Close() error { return s.store.close() }

// apiError carries the HTTP status a failure maps to. The Go-level
// methods return it too, so in-process thin clients see the same taxonomy.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string { return e.Msg }

func errBadRequest(format string, args ...any) error {
	return &apiError{Status: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// classify maps engine errors onto the wire taxonomy: invalid input that
// decoded fine is 422, an expired request deadline is 504.
func classify(err error) error {
	var ae *apiError
	if errors.As(err, &ae) {
		return err
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &apiError{Status: http.StatusGatewayTimeout, Msg: "deadline exceeded mid-scan"}
	}
	if errors.Is(err, context.Canceled) {
		return &apiError{Status: http.StatusGatewayTimeout, Msg: "request canceled"}
	}
	if errors.Is(err, core.ErrDisconnected) || errors.Is(err, dynamics.ErrTooSmall) {
		return &apiError{Status: http.StatusUnprocessableEntity, Msg: err.Error()}
	}
	return &apiError{Status: http.StatusInternalServerError, Msg: err.Error()}
}

// decodeGraph decodes and size-checks a request graph.
func (s *Server) decodeGraph(d GraphDTO) (*graph.Graph, error) {
	g, err := d.Decode()
	if err != nil {
		return nil, errBadRequest("bad graph: %v", err)
	}
	if g.N() > s.cfg.MaxN {
		return nil, &apiError{
			Status: http.StatusRequestEntityTooLarge,
			Msg:    fmt.Sprintf("graph has n=%d, server accepts at most %d", g.N(), s.cfg.MaxN),
		}
	}
	return g, nil
}

// clampWorkers resolves a request's worker ask against the server cap.
func (s *Server) clampWorkers(w int) int {
	if w <= 0 || w > s.cfg.MaxWorkers {
		return s.cfg.MaxWorkers
	}
	return w
}

// withDeadline applies the request timeout (timeout_ms, else the server
// default) to ctx.
func (s *Server) withDeadline(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	switch {
	case timeoutMS > 0:
		return context.WithTimeout(ctx, time.Duration(timeoutMS)*time.Millisecond)
	case s.cfg.DefaultTimeout > 0:
		return context.WithTimeout(ctx, s.cfg.DefaultTimeout)
	default:
		return context.WithCancel(ctx)
	}
}

// acquire claims a session slot, waiting until one frees or ctx expires.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Check answers a CheckRequest: decode, then look the exact labeled
// graph and spec up in the verdict table, joining an identical in-flight
// request if there is one; a leader consults the persistent store and
// otherwise runs the spec'd check on a pooled session with the request
// deadline enforced between per-agent scan units. Everything before the
// deadline and the pool is linear in the request.
//
// Latency is tracked per outcome, not pooled: "check" counts full
// certifications (leaders), "check.hit" LRU hits, "check.store" store
// hits, and "check.coalesced" followers — a cache hit's microseconds no
// longer deflate the certification histogram.
func (s *Server) Check(ctx context.Context, req CheckRequest) (*CheckResponse, error) {
	start := time.Now()
	resp, label, err := s.check(ctx, req)
	s.stats.observe(label, time.Since(start), err != nil)
	return resp, err
}

func (s *Server) check(ctx context.Context, req CheckRequest) (*CheckResponse, string, error) {
	const label = "check"
	g, err := s.decodeGraph(req.Graph)
	if err != nil {
		return nil, label, err
	}
	model, err := req.Model.Build(g.N())
	if err != nil {
		return nil, label, errBadRequest("bad model: %v", err)
	}
	obj, err := parseObjective(req.Objective)
	if err != nil {
		return nil, label, errBadRequest("%v", err)
	}

	exact, err := graphio.ToSparse6(g)
	if err != nil {
		return nil, label, errBadRequest("bad graph: %v", err)
	}
	key := checkKey(req, exact)
	v, f, lead := s.verdicts.getOrLead(key, exact)
	if f == nil {
		s.stats.cacheHit()
		return &CheckResponse{N: g.N(), M: g.M(), VerdictDTO: v, Cached: true}, "check.hit", nil
	}

	ctx, cancel := s.withDeadline(ctx, req.TimeoutMS)
	defer cancel()
	if !lead {
		resp, err := s.verdicts.wait(ctx, f)
		if err != nil {
			return nil, "check.coalesced", classify(err)
		}
		s.stats.coalesceFollower()
		resp.Coalesced = true
		return resp, "check.coalesced", nil
	}

	// The leader probes the store inside its flight, and journals a fresh
	// verdict before it resolves, so by the time any follower (or a later
	// request) proceeds the verdict is servable without recomputation —
	// from the LRU or, with caching off, from the store.
	var resp *CheckResponse
	if v, ok := s.store.get(key, exact); ok {
		s.stats.storeHit()
		resp = &CheckResponse{N: g.N(), M: g.M(), VerdictDTO: v, Cached: true, Stored: true}
	} else {
		resp, err = s.certify(ctx, g, core.CheckSpec{
			Model:      model,
			Objective:  obj,
			StableOnly: req.StableOnly,
			Batched:    req.Batched,
			Workers:    s.clampWorkers(req.Workers),
		})
		if err == nil && s.store != nil {
			s.stats.storeAppend(s.store.append(key, exact, req, resp.VerdictDTO) != nil)
		}
	}
	s.verdicts.resolve(key, f, resp, err)
	if err != nil {
		return nil, label, err
	}
	cp := *resp // followers copy the flight's response; the caller owns this one
	if resp.Stored {
		return &cp, "check.store", nil
	}
	s.stats.coalesceLeader()
	return &cp, label, nil
}

// certify runs one cache-miss certification on a pooled session.
func (s *Server) certify(ctx context.Context, g *graph.Graph, spec core.CheckSpec) (*CheckResponse, error) {
	s.stats.cacheMiss()
	release, err := s.acquire(ctx)
	if err != nil {
		return nil, classify(err)
	}
	defer release()
	if hook := s.certifyHook; hook != nil {
		hook()
	}
	verdict, err := core.CheckCtx(ctx, g, spec)
	if err != nil {
		return nil, classify(err)
	}
	return &CheckResponse{N: g.N(), M: g.M(), VerdictDTO: verdictToDTO(verdict)}, nil
}

// BestResponse answers a BestResponseRequest: one agent's cost-minimizing
// move under the model. The deadline applies to slot wait and to the scan
// itself: the per-agent scan polls a cancel hook between pricing units
// (per candidate endpoint, never inside one), so a deadline expiring
// mid-scan returns 504 instead of running the scan to completion.
func (s *Server) BestResponse(ctx context.Context, req BestResponseRequest) (*BestResponseResponse, error) {
	start := time.Now()
	resp, err := s.bestResponse(ctx, req)
	s.stats.observe("bestresponse", time.Since(start), err != nil)
	return resp, err
}

func (s *Server) bestResponse(ctx context.Context, req BestResponseRequest) (*BestResponseResponse, error) {
	g, err := s.decodeGraph(req.Graph)
	if err != nil {
		return nil, err
	}
	if req.Agent < 0 || req.Agent >= g.N() {
		return nil, errBadRequest("agent %d outside [0,%d)", req.Agent, g.N())
	}
	model, err := req.Model.Build(g.N())
	if err != nil {
		return nil, errBadRequest("bad model: %v", err)
	}
	obj, err := parseObjective(req.Objective)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}

	ctx, cancel := s.withDeadline(ctx, req.TimeoutMS)
	defer cancel()
	release, err := s.acquire(ctx)
	if err != nil {
		return nil, classify(err)
	}
	defer release()
	if err := ctx.Err(); err != nil {
		return nil, classify(err)
	}

	inst := model.New(g, s.clampWorkers(req.Workers))
	defer game.CloseInstance(inst)
	// Cooperative mid-scan cancellation, the same shape batchRows uses: a
	// ctx.Err() poll latched through an atomic flag so every scan chunk
	// observes the first expiry without re-querying the context.
	var stop atomic.Bool
	game.SetScanCancel(inst, func() bool {
		if stop.Load() {
			return true
		}
		if ctx.Err() != nil {
			stop.Store(true)
			return true
		}
		return false
	})
	m, oldCost, newCost, ok := inst.BestMove(req.Agent, obj)
	if err := ctx.Err(); err != nil {
		return nil, classify(err)
	}
	resp := &BestResponseResponse{OldCost: oldCost, NewCost: newCost, Improves: ok}
	if ok {
		dto := moveToDTO(m)
		resp.Move = &dto
	} else {
		resp.NewCost = oldCost
	}
	return resp, nil
}

// Dynamics answers a DynamicsRequest: run move dynamics from the request
// graph on a pooled session, optionally re-certifying the final graph with
// a fresh one-shot check.
func (s *Server) Dynamics(ctx context.Context, req DynamicsRequest) (*DynamicsResponse, error) {
	start := time.Now()
	resp, err := s.dynamics(ctx, req)
	s.stats.observe("dynamics", time.Since(start), err != nil)
	return resp, err
}

func (s *Server) dynamics(ctx context.Context, req DynamicsRequest) (*DynamicsResponse, error) {
	run, err := s.prepDynamics(req)
	if err != nil {
		return nil, err
	}
	return s.execDynamics(ctx, req, run, nil)
}

// dynamicsRun is a validated dynamics request, split from execution so
// the streaming endpoint can answer validation failures with an ordinary
// JSON status before the first streamed byte commits the response to 200.
type dynamicsRun struct {
	g       *graph.Graph
	model   game.Model
	obj     core.Objective
	policy  dynamics.Policy
	workers int
}

// prepDynamics decodes and validates a dynamics request (the 4xx half).
func (s *Server) prepDynamics(req DynamicsRequest) (*dynamicsRun, error) {
	g, err := s.decodeGraph(req.Graph)
	if err != nil {
		return nil, err
	}
	model, err := req.Model.Build(g.N())
	if err != nil {
		return nil, errBadRequest("bad model: %v", err)
	}
	obj, err := parseObjective(req.Objective)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	policy, err := parsePolicy(req.Policy)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	if req.MaxMoves < 0 || req.MaxMoves > s.cfg.MaxMoves {
		return nil, errBadRequest("max_moves %d outside [0,%d]", req.MaxMoves, s.cfg.MaxMoves)
	}
	return &dynamicsRun{
		g:       g,
		model:   model,
		obj:     obj,
		policy:  policy,
		workers: s.clampWorkers(req.Workers),
	}, nil
}

// execDynamics runs a validated dynamics request on a pooled session.
// onMove, when non-nil, observes every applied move in order on the run's
// goroutine (the streaming endpoint's feed).
func (s *Server) execDynamics(ctx context.Context, req DynamicsRequest, run *dynamicsRun, onMove func(dynamics.TraceEntry)) (*DynamicsResponse, error) {
	ctx, cancel := s.withDeadline(ctx, req.TimeoutMS)
	defer cancel()
	release, err := s.acquire(ctx)
	if err != nil {
		return nil, classify(err)
	}
	defer release()

	spec := dynamics.Spec{
		CheckSpec: core.CheckSpec{
			Model:     run.model,
			Objective: run.obj,
			Batched:   req.Batched,
			Workers:   run.workers,
		},
		Policy:   run.policy,
		MaxMoves: req.MaxMoves,
		Seed:     req.Seed,
		Trace:    req.Trace,
		OnMove:   onMove,
	}
	res, err := dynamics.RunSpecCtx(ctx, run.g, spec)
	if err != nil {
		return nil, classify(err)
	}

	final, err := EncodeGraph(run.g, FormatSparse6)
	if err != nil {
		return nil, classify(err)
	}
	resp := &DynamicsResponse{
		Converged:       res.Converged,
		Moves:           res.Moves,
		Sweeps:          res.Sweeps,
		Batched:         res.Batched.String(),
		RowsRecomputed:  res.RowsRecomputed,
		RowsInvalidated: res.RowsInvalidated,
		Final:           final,
	}
	s.stats.rowCache(res.RowsRecomputed, res.RowsInvalidated)
	for _, te := range res.Trace {
		resp.Trace = append(resp.Trace, traceEntryToDTO(te))
	}
	if req.Certify {
		verdict, err := core.CheckCtx(ctx, run.g, core.CheckSpec{
			Model:      run.model,
			Objective:  run.obj,
			StableOnly: true, // dynamics certify exactly the no-improving-move condition
			Batched:    req.Batched,
			Workers:    run.workers,
		})
		if err != nil {
			return nil, classify(err)
		}
		v := verdictToDTO(verdict)
		resp.Certified = &v
	}
	return resp, nil
}

// traceEntryToDTO converts one applied move to the wire shape shared by
// the blob trace and the streamed move events.
func traceEntryToDTO(te dynamics.TraceEntry) TraceEntryDTO {
	return TraceEntryDTO{
		Move:       moveToDTO(te.Move),
		OldCost:    te.OldCost,
		NewCost:    te.NewCost,
		SocialCost: te.SocialCost,
		MoveRank:   te.MoveRank,
	}
}

// Stats returns the live counter snapshot served on GET /stats.
func (s *Server) Stats() StatsSnapshot {
	return s.stats.snapshot(s.verdicts.len(), s.store != nil, s.store.len())
}

// Handler returns the HTTP surface: POST /v1/check, /v1/bestresponse,
// /v1/dynamics (JSON DTOs of api.go), GET /healthz and /stats.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/check", func(w http.ResponseWriter, r *http.Request) {
		var req CheckRequest
		if !decodeBody(w, r, &req) {
			return
		}
		resp, err := s.Check(r.Context(), req)
		writeResult(w, resp, err)
	})
	mux.HandleFunc("POST /v1/bestresponse", func(w http.ResponseWriter, r *http.Request) {
		var req BestResponseRequest
		if !decodeBody(w, r, &req) {
			return
		}
		resp, err := s.BestResponse(r.Context(), req)
		writeResult(w, resp, err)
	})
	mux.HandleFunc("POST /v1/dynamics", func(w http.ResponseWriter, r *http.Request) {
		var req DynamicsRequest
		if !decodeBody(w, r, &req) {
			return
		}
		resp, err := s.Dynamics(r.Context(), req)
		writeResult(w, resp, err)
	})
	mux.HandleFunc("POST /v1/dynamics/stream", s.handleDynamicsStream)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":    "ok",
			"pool_size": s.cfg.PoolSize,
			"in_use":    len(s.slots),
		})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

// ListenAndServe serves the handler on the configured address until the
// listener fails or srv is shut down externally.
func (s *Server) ListenAndServe() error {
	return http.ListenAndServe(s.cfg.Addr, s.Handler())
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// decodeBody parses a JSON request body, answering 400 on malformed input.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
		return false
	}
	return true
}

// writeResult renders a method result: the response on success, the
// apiError taxonomy on failure.
func writeResult(w http.ResponseWriter, resp any, err error) {
	if err != nil {
		var ae *apiError
		if errors.As(err, &ae) {
			writeJSON(w, ae.Status, errorBody{Error: ae.Msg})
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
