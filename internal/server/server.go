// Package server is the multi-tenant serving front end (DESIGN.md §12):
// a long-lived HTTP server that loads dataset shards once, keeps a pool
// of parked runtime.Sessions per (dataset, program, mode), and exposes
//
//	POST /v1/query   — compute a fresh fixpoint, stream values as NDJSON
//	GET  /v1/result  — wait-free point lookup on the cached fixpoint
//	POST /v1/mutate  — fold base-fact changes in via Session.Apply
//	GET  /metrics    — Prometheus text exposition (server + engines)
//	GET  /healthz    — liveness (503 while draining)
//
// Admission control is two-layered (per-tenant token bucket → 429,
// server-wide concurrent-fixpoint semaphore → 503 + Retry-After), and
// per-request wall budgets map onto runtime.Config.MaxWall and
// Config.CollectTimeout so a slow query is cut off at the client's
// deadline instead of the server default. Shutdown is a graceful drain:
// Close stops admitting work and closes every pooled session, each of
// which waits out its in-flight fixpoint.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"powerlog/internal/compiler"
	"powerlog/internal/graph"
	"powerlog/internal/metrics"
	"powerlog/internal/runtime"
)

// Config tunes the front end. Zero values select the documented
// defaults.
type Config struct {
	// Workers is the number of worker shards per engine session
	// (default 4).
	Workers int
	// Rate is the per-tenant admission rate in requests/second
	// (default 50).
	Rate float64
	// Burst is the token-bucket capacity (default 2×Rate).
	Burst float64
	// MaxFixpoints caps concurrently running fixpoints across all
	// tenants (default 2).
	MaxFixpoints int
	// DefaultBudget is the per-request wall budget when the request
	// carries none (default 30s). A request's budget_ms overrides it;
	// MaxBudget (default 2m) caps what clients may ask for.
	DefaultBudget time.Duration
	MaxBudget     time.Duration
	// Tau and CheckInterval tune the engines (defaults 1ms / 2ms —
	// the bench harness's serving-grade settings, not the runtime's
	// batch defaults). CheckInterval is the termination detector's
	// fallback cadence, not a latency floor under /v1/mutate: an Apply
	// stops on the workers' idle reports, not on a tick.
	Tau           time.Duration
	CheckInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Rate <= 0 {
		c.Rate = 50
	}
	if c.Burst <= 0 {
		c.Burst = 2 * c.Rate
	}
	if c.MaxFixpoints <= 0 {
		c.MaxFixpoints = 2
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 30 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 2 * time.Minute
	}
	if c.Tau <= 0 {
		c.Tau = time.Millisecond
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = 2 * time.Millisecond
	}
	return c
}

// Server is the front end. Create with New, mount Handler on an
// http.Server, and Close to drain.
type Server struct {
	cfg      Config
	reg      *metrics.Registry
	met      *serveMetrics
	adm      *admission
	pool     *pool
	mux      *http.ServeMux
	draining atomic.Bool
}

func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	met := newServeMetrics(reg)
	s := &Server{
		cfg:  cfg,
		reg:  reg,
		met:  met,
		adm:  newAdmission(cfg.Rate, cfg.Burst, cfg.MaxFixpoints),
		pool: newPool(met.pooled),
		mux:  http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/result", s.handleResult)
	s.mux.HandleFunc("POST /v1/mutate", s.handleMutate)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the HTTP handler to mount.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the server: new fixpoint work is rejected with 503, and
// every pooled session is closed, waiting out in-flight Applys. Safe to
// call more than once. Wire it behind http.Server.Shutdown so in-flight
// responses finish streaming first.
func (s *Server) Close() error {
	s.draining.Store(true)
	return s.pool.closeAll()
}

// ---------------------------------------------------------------------
// Request/response shapes.
// ---------------------------------------------------------------------

// edgeJSON is one edge in a mutate batch.
type edgeJSON struct {
	Src int32   `json:"src"`
	Dst int32   `json:"dst"`
	W   float64 `json:"w"`
}

func toEdges(in []edgeJSON) []graph.Edge {
	if len(in) == 0 {
		return nil
	}
	out := make([]graph.Edge, len(in))
	for i, e := range in {
		out[i] = graph.Edge{Src: e.Src, Dst: e.Dst, W: e.W}
	}
	return out
}

type queryRequest struct {
	Tenant  string `json:"tenant"`
	Dataset string `json:"dataset"`
	Algo    string `json:"algo"`
	Source  string `json:"source"` // custom Datalog program (overrides Algo)
	Mode    string `json:"mode"`
	// BudgetMS is the wall budget for the fixpoint; it maps onto
	// runtime.Config.MaxWall (and a quarter of it onto CollectTimeout).
	BudgetMS int64 `json:"budget_ms"`
	// Limit caps streamed value lines (0 = all).
	Limit int `json:"limit"`
	// Fresh forces a new fixpoint even when a parked one exists.
	Fresh bool `json:"fresh"`
}

type mutateRequest struct {
	Tenant   string     `json:"tenant"`
	Dataset  string     `json:"dataset"`
	Algo     string     `json:"algo"`
	Source   string     `json:"source"`
	Mode     string     `json:"mode"`
	BudgetMS int64      `json:"budget_ms"`
	Inserts  []edgeJSON `json:"inserts"`
	Deletes  []edgeJSON `json:"deletes"`
}

// queryHeader is the first NDJSON line of a /v1/query response.
type queryHeader struct {
	Kind      string `json:"kind"` // "header"
	Dataset   string `json:"dataset"`
	Mode      string `json:"mode"`
	Rounds    int    `json:"rounds"`
	ElapsedUS int64  `json:"elapsed_us"`
	Converged bool   `json:"converged"`
	Values    int    `json:"values"`
	Cached    bool   `json:"cached"`
}

type valueLine struct {
	K int64   `json:"k"`
	V float64 `json:"v"`
}

type errBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false) // a refusal quotes the program's facts: "a <= 1", not "a \u003c= 1"
	enc.Encode(v)
}

// httpError maps an error onto a status code and records the shed /
// error counters. Busy and saturated map to 503 with Retry-After (the
// server's state), rate limiting to 429 (the tenant's), ConfigError and
// compiler.Error to 400 (the request named an invalid budget, or a
// program or mutation the plan refuses), everything else to the
// caller-provided fallback.
func (s *Server) httpError(w http.ResponseWriter, err error, fallback int) {
	var ce *runtime.ConfigError
	var pe *compiler.Error
	switch {
	case errors.Is(err, errRateLimited):
		s.met.shedRate.Add(1)
		writeJSON(w, http.StatusTooManyRequests, errBody{Error: err.Error()})
	case errors.Is(err, errSaturated), errors.Is(err, runtime.ErrSessionBusy):
		s.met.shedBusy.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errBody{Error: err.Error()})
	case errors.Is(err, runtime.ErrSessionClosed):
		s.met.shedBusy.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errBody{Error: "server: draining or session replaced; retry"})
	case errors.As(err, &ce), errors.As(err, &pe):
		s.met.errs.Add(1)
		writeJSON(w, http.StatusBadRequest, errBody{Error: err.Error()})
	default:
		s.met.errs.Add(1)
		writeJSON(w, fallback, errBody{Error: err.Error()})
	}
}

// engineConfig maps a request budget onto a runtime.Config. The budget
// becomes MaxWall; CollectTimeout gets a quarter of it so a dead worker
// is detected well inside the client's deadline rather than at the
// MaxWall fallback. Validation (negative budgets and friends) is left
// to runtime.Config.Validate inside Open, whose *ConfigError the
// handlers map to 400.
func (s *Server) engineConfig(mode runtime.Mode, budgetMS int64) runtime.Config {
	budget := s.cfg.DefaultBudget
	if budgetMS != 0 {
		budget = time.Duration(budgetMS) * time.Millisecond
	}
	if budget > s.cfg.MaxBudget {
		budget = s.cfg.MaxBudget
	}
	return runtime.Config{
		Workers:        s.cfg.Workers,
		Mode:           mode,
		Tau:            s.cfg.Tau,
		CheckInterval:  s.cfg.CheckInterval,
		MaxWall:        budget,
		CollectTimeout: budget / 4,
	}
}

// ---------------------------------------------------------------------
// Handlers.
// ---------------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errBody{Error: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.met.req.Add(1)
	snap := s.reg.Snapshot().Merge(s.pool.engineSnapshots())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	metrics.WritePrometheus(w, "powerlog", snap)
}

// handleQuery computes (or reuses) a fixpoint and streams it. The fresh
// path passes both admission gates, opens a session against a private
// graph copy, swaps it into the pool, and closes the displaced one; the
// cached path is admission-free like a lookup.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.met.req.Add(1)
	start := time.Now()
	var req queryRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		s.httpError(w, fmt.Errorf("decode request: %w", err), http.StatusBadRequest)
		return
	}
	mode, err := modeByName(req.Mode)
	if err != nil {
		s.httpError(w, err, http.StatusBadRequest)
		return
	}
	if s.draining.Load() {
		s.httpError(w, runtime.ErrSessionClosed, 0)
		return
	}
	key := poolKey(req.Dataset, req.Algo, req.Source, mode)

	if !req.Fresh {
		if e := s.pool.lookup(key); e != nil {
			if res := e.result(); res != nil {
				s.met.queryCached.Add(1)
				s.streamResult(w, req, mode, res, true)
				s.met.queryLat.Observe(uint64(time.Since(start).Microseconds()))
				return
			}
		}
	}

	if err := s.adm.takeToken(req.Tenant, start); err != nil {
		s.httpError(w, err, 0)
		return
	}
	if err := s.adm.acquireFixpoint(); err != nil {
		s.httpError(w, err, 0)
		return
	}
	defer s.adm.releaseFixpoint()

	plan, err := buildPlan(req.Algo, req.Source, req.Dataset)
	if err != nil {
		s.httpError(w, err, http.StatusBadRequest)
		return
	}
	sess, err := runtime.Open(plan, s.engineConfig(mode, req.BudgetMS))
	if err != nil {
		s.httpError(w, err, http.StatusInternalServerError)
		return
	}
	res := sess.Result()
	e, err := s.pool.ensure(key)
	if err == nil {
		var old *runtime.Session
		old, err = s.pool.install(e, sess, res)
		if old != nil {
			old.Close()
		}
	}
	if err != nil {
		// Pool closed while we were computing: serve the response we
		// already paid for, but don't park the session.
		sess.Close()
	}
	s.met.queryFresh.Add(1)
	s.streamResult(w, req, mode, res, false)
	s.met.queryLat.Observe(uint64(time.Since(start).Microseconds()))
}

// streamResult writes the NDJSON header plus value lines, keys sorted
// for determinism, capped at req.Limit when non-zero.
func (s *Server) streamResult(w http.ResponseWriter, req queryRequest, mode runtime.Mode, res *runtime.Result, cached bool) {
	keys := make([]int64, 0, len(res.Values))
	for k := range res.Values {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if req.Limit > 0 && len(keys) > req.Limit {
		keys = keys[:req.Limit]
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	enc.Encode(queryHeader{
		Kind:      "header",
		Dataset:   req.Dataset,
		Mode:      mode.String(),
		Rounds:    res.Rounds,
		ElapsedUS: res.Elapsed.Microseconds(),
		Converged: res.Converged,
		Values:    len(res.Values),
		Cached:    cached,
	})
	for _, k := range keys {
		enc.Encode(valueLine{K: k, V: res.Values[k]})
	}
}

// handleResult is the wait-free point lookup: no admission gates, no
// session claim — it reads the last published fixpoint, which stays
// valid even while an Apply re-fixpoints concurrently.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.met.req.Add(1)
	start := time.Now()
	q := r.URL.Query()
	mode, err := modeByName(q.Get("mode"))
	if err != nil {
		s.httpError(w, err, http.StatusBadRequest)
		return
	}
	key, err := strconv.ParseInt(q.Get("key"), 10, 64)
	if err != nil {
		s.httpError(w, fmt.Errorf("bad key %q", q.Get("key")), http.StatusBadRequest)
		return
	}
	e := s.pool.lookup(poolKey(q.Get("dataset"), q.Get("algo"), "", mode))
	if e == nil {
		s.met.errs.Add(1)
		writeJSON(w, http.StatusNotFound, errBody{Error: "no cached fixpoint for this dataset/algo/mode; POST /v1/query first"})
		return
	}
	res := e.result()
	if res == nil {
		s.met.errs.Add(1)
		writeJSON(w, http.StatusNotFound, errBody{Error: "no fixpoint published yet"})
		return
	}
	v, ok := res.Values[key]
	if !ok {
		s.met.errs.Add(1)
		writeJSON(w, http.StatusNotFound, errBody{Error: fmt.Sprintf("key %d has no derived value", key)})
		return
	}
	s.met.lookup.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"k": key, "v": v})
	s.met.lookupLat.Observe(uint64(time.Since(start).Microseconds()))
}

// handleMutate folds a base-fact batch into the pooled session via
// Session.Apply. A busy session (fixpoint in flight) is shed with 503
// rather than queued: Apply can legitimately run for the whole wall
// budget, and the client's retry policy owns the wait.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	s.met.req.Add(1)
	start := time.Now()
	var req mutateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&req); err != nil {
		s.httpError(w, fmt.Errorf("decode request: %w", err), http.StatusBadRequest)
		return
	}
	mode, err := modeByName(req.Mode)
	if err != nil {
		s.httpError(w, err, http.StatusBadRequest)
		return
	}
	if s.draining.Load() {
		s.httpError(w, runtime.ErrSessionClosed, 0)
		return
	}
	if err := s.adm.takeToken(req.Tenant, start); err != nil {
		s.httpError(w, err, 0)
		return
	}
	e := s.pool.lookup(poolKey(req.Dataset, req.Algo, req.Source, mode))
	if e == nil || e.session() == nil {
		s.met.errs.Add(1)
		writeJSON(w, http.StatusNotFound, errBody{Error: "no parked session for this dataset/algo/mode; POST /v1/query first"})
		return
	}
	if err := s.adm.acquireFixpoint(); err != nil {
		s.httpError(w, err, 0)
		return
	}
	defer s.adm.releaseFixpoint()

	mut := runtime.Mutation{Inserts: toEdges(req.Inserts), Deletes: toEdges(req.Deletes)}
	// One retry on ErrSessionClosed: a racing fresh query may have
	// swapped the session between our lookup and the Apply.
	var res *runtime.Result
	for attempt := 0; ; attempt++ {
		sess := e.session()
		if sess == nil {
			s.httpError(w, runtime.ErrSessionClosed, 0)
			return
		}
		res, err = sess.Apply(mut)
		if errors.Is(err, runtime.ErrSessionClosed) && attempt == 0 {
			continue
		}
		break
	}
	if err != nil {
		s.httpError(w, err, http.StatusInternalServerError)
		return
	}
	e.publish(res)
	s.met.mutate.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{
		"rounds":     res.Rounds,
		"elapsed_us": res.Elapsed.Microseconds(),
		"converged":  res.Converged,
		"inserts":    len(req.Inserts),
		"deletes":    len(req.Deletes),
		"values":     len(res.Values),
	})
	s.met.mutateLat.Observe(uint64(time.Since(start).Microseconds()))
}
