// Package server exposes ChatIYP over HTTP, mirroring the paper's
// public web application: a versioned /v1/ JSON API for natural-
// language questions (answers come back with the executed Cypher for
// transparency), raw Cypher with streaming NDJSON and cursor-paginated
// JSON transports, EXPLAIN, batch ask, schema and graph-statistics
// endpoints, a runtime-metrics endpoint, and a minimal embedded UI.
//
// Every /v1/ error answers with the uniform envelope defined in
// internal/api: {"error": {"code", "message", "retry_after?",
// "request_id"}}.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"chatiyp/internal/agent"
	"chatiyp/internal/api"
	"chatiyp/internal/core"
	"chatiyp/internal/iyp"
	"chatiyp/internal/metrics"
	"chatiyp/internal/resilience"
)

// Config assembles a Server.
type Config struct {
	// Pipeline answers questions. Required.
	Pipeline *core.Pipeline
	// AskTimeout bounds one question's processing (default 15s). The
	// deadline genuinely aborts execution: the Cypher engine's
	// cancellation checks stop in-flight scans, and the handler
	// answers 504 with the timeout error shape.
	AskTimeout time.Duration
	// CypherTimeout bounds one POST /v1/cypher execution (default
	// 10s), with the same abort semantics as AskTimeout.
	CypherTimeout time.Duration
	// Logger receives request logs; nil disables logging.
	Logger *log.Logger
	// MaxQuestionLen rejects oversized inputs (default 1024 bytes).
	MaxQuestionLen int
	// CypherRowLimit caps the rows one POST /v1/cypher query may
	// return; the streaming executor stops the scan at the cap and the
	// response carries "truncated": true instead of an error, so a
	// user query cannot hold a worker for an unbounded scan. Zero
	// means DefaultCypherRowLimit; negative disables the cap.
	CypherRowLimit int
	// MaxBodyBytes caps the request body on the POST endpoints;
	// oversized bodies get 413 with a JSON error. Zero means
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxConcurrent caps how many /v1/ask and /v1/cypher requests
	// execute at once (the expensive endpoints share one scheduler).
	// Zero means 2×GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue caps how many requests may wait for an execution slot;
	// beyond it the server answers 429 with Retry-After. Zero means
	// 4×MaxConcurrent; negative disables queueing (reject as soon as
	// all slots are busy).
	MaxQueue int
	// RetryAfter is the backoff hint sent with 429/503 responses
	// (default 1s).
	RetryAfter time.Duration
	// DrainTimeout bounds the graceful shutdown: how long
	// ListenAndServe waits for in-flight requests after its context
	// ends (default 5s).
	DrainTimeout time.Duration
	// DefaultPageSize is the page size used when a /v1/cypher request
	// asks for pagination (a cursor without page_size). Zero means 100.
	DefaultPageSize int
	// MaxPageSize caps the page_size a /v1/cypher request may ask for
	// (default 5000).
	MaxPageSize int
	// MaxBatch caps how many questions one /v1/ask/batch request may
	// carry (default 32).
	MaxBatch int
	// MaxParallelism caps intra-query morsel parallelism for queries
	// the pipeline executes on this server's behalf (applied via
	// Pipeline.SetMaxParallelism at construction). Zero leaves the
	// pipeline's setting untouched (the engine defaults to GOMAXPROCS);
	// 1 pins every query to the serial executor.
	MaxParallelism int
	// SemCacheThreshold enables the pipeline's semantic answer cache
	// (applied via Pipeline.EnableSemCache at construction, the same
	// pattern as MaxParallelism): questions at least this cosine-
	// similar to a previously answered one — cached at the current
	// graph version — are answered without retrieval or generation.
	// Zero leaves the pipeline's own setting untouched.
	SemCacheThreshold float64
	// SemCacheSize bounds the semantic cache's LRU entry count when
	// SemCacheThreshold engages it here (0 = the core default).
	SemCacheSize int
	// ToolTimeout bounds one POST /v1/tools tools/call execution
	// (default AskTimeout — the ask tool runs the same pipeline).
	ToolTimeout time.Duration
	// SessionTTL is the idle TTL of agent tool sessions (0 = the agent
	// default, 10 minutes). Each access slides the window.
	SessionTTL time.Duration
	// SessionRatePerSec and SessionRateBurst shape the per-session
	// token bucket admitting tool calls; exhaustion answers 429 with
	// Retry-After for that session only. Zero means the agent defaults;
	// a negative rate disables per-session rate limiting.
	SessionRatePerSec float64
	SessionRateBurst  int
	// SessionClock overrides the session store's clock; tests inject it
	// to drive TTL expiry deterministically. Nil means time.Now.
	SessionClock func() time.Time

	// LLM-backend resilience. Unless DisableResilience is set, New wraps
	// the pipeline's model in a ResilientModel (applied via
	// Pipeline.EnableResilience, the same pattern as SemCacheThreshold)
	// with graceful degradation on: a down backend yields degraded 200s
	// assembled from retrieved facts, never 5xx. Zero values take the
	// resilience package defaults.
	//
	// LLMRetries is how many extra attempts follow a retryable model
	// failure (default 2; <0 disables retries).
	LLMRetries int
	// LLMBreakerCooldown is how long an open breaker waits before
	// probing the backend again (default 5s).
	LLMBreakerCooldown time.Duration
	// DisableResilience leaves the pipeline's model exactly as
	// configured — no wrapper, no degradation. Embedders that wrapped
	// the model themselves (or want failures loud) set this.
	DisableResilience bool
}

// DefaultCypherRowLimit is the /v1/cypher row cap applied when
// Config.CypherRowLimit is zero.
const DefaultCypherRowLimit = 10_000

// DefaultMaxBodyBytes is the POST body cap applied when
// Config.MaxBodyBytes is zero.
const DefaultMaxBodyBytes = 1 << 20

// Server is the ChatIYP HTTP front end.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	sched *scheduler
	reg   *metrics.Registry
	agent *agent.Service
}

// ErrNoPipeline rejects a Config without a pipeline.
var ErrNoPipeline = errors.New("server: Config.Pipeline is required")

// New builds the server and its routes.
func New(cfg Config) (*Server, error) {
	if cfg.Pipeline == nil {
		return nil, ErrNoPipeline
	}
	if cfg.AskTimeout == 0 {
		cfg.AskTimeout = 15 * time.Second
	}
	if cfg.CypherTimeout == 0 {
		cfg.CypherTimeout = 10 * time.Second
	}
	if cfg.MaxQuestionLen == 0 {
		cfg.MaxQuestionLen = 1024
	}
	if cfg.CypherRowLimit == 0 {
		cfg.CypherRowLimit = DefaultCypherRowLimit
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxParallelism != 0 {
		cfg.Pipeline.SetMaxParallelism(cfg.MaxParallelism)
	}
	if cfg.SemCacheThreshold > 0 {
		cfg.Pipeline.EnableSemCache(cfg.SemCacheThreshold, cfg.SemCacheSize)
	}
	if !cfg.DisableResilience {
		cfg.Pipeline.EnableResilience(resilience.Config{
			Retries:         cfg.LLMRetries,
			BreakerCooldown: cfg.LLMBreakerCooldown,
		}, true)
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.MaxQueue == 0:
		cfg.MaxQueue = 4 * cfg.MaxConcurrent
	case cfg.MaxQueue < 0:
		cfg.MaxQueue = 0
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.DefaultPageSize <= 0 {
		cfg.DefaultPageSize = 100
	}
	if cfg.MaxPageSize <= 0 {
		cfg.MaxPageSize = 5000
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 32
	}
	if cfg.ToolTimeout == 0 {
		cfg.ToolTimeout = cfg.AskTimeout
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux(), reg: cfg.Pipeline.Metrics()}
	s.sched = newScheduler(cfg.MaxConcurrent, cfg.MaxQueue, s.reg)
	agentSvc, err := agent.NewService(agent.Config{
		Pipeline: cfg.Pipeline,
		RowCap:   cfg.CypherRowLimit,
		Metrics:  s.reg,
		Sessions: agent.StoreConfig{
			TTL:        cfg.SessionTTL,
			RatePerSec: cfg.SessionRatePerSec,
			RateBurst:  cfg.SessionRateBurst,
			Now:        cfg.SessionClock,
		},
	})
	if err != nil {
		return nil, err
	}
	s.agent = agentSvc
	// Every error is the uniform envelope.
	s.mux.HandleFunc("GET /v1/health", s.handleHealthLive)
	s.mux.HandleFunc("GET /v1/health/live", s.handleHealthLive)
	s.mux.HandleFunc("GET /v1/health/ready", s.handleHealthReady)
	s.mux.HandleFunc("GET /v1/schema", s.handleSchema)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/ask", s.handleAskV1)
	s.mux.HandleFunc("POST /v1/ask/batch", s.handleAskBatchV1)
	s.mux.HandleFunc("POST /v1/cypher", s.handleCypherV1)
	s.mux.HandleFunc("POST /v1/explain", s.handleExplainV1)
	s.mux.HandleFunc("POST /v1/tools", s.handleToolsV1)
	// The index matches exactly "/"; everything unrouted 404s with the
	// envelope instead of silently serving the index page.
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux.HandleFunc("/", s.handleNotFound)
	return s, nil
}

// Handler returns the HTTP handler with logging middleware applied.
func (s *Server) Handler() http.Handler {
	return s.logged(s.mux)
}

// ListenAndServe runs the server until the context is cancelled, then
// shuts down gracefully: the scheduler drains first (queued requests
// abort, new arrivals get 503, in-flight ones finish within
// Config.DrainTimeout), and the HTTP server closes after.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		if err := s.sched.drain(drainCtx); err != nil && s.cfg.Logger != nil {
			s.cfg.Logger.Printf("drain incomplete: %v", err)
		}
		// Shutdown gets its own small budget: a drain that spent the
		// whole DrainTimeout must not turn the connection close on the
		// cheap endpoints into an instant abort.
		shutCtx, cancel2 := context.WithTimeout(context.Background(), time.Second)
		defer cancel2()
		return httpSrv.Shutdown(shutCtx)
	}
}

// Drain stops admitting /v1/ask and /v1/cypher requests and waits for
// the in-flight ones (bounded by ctx). Exposed for embedders that run
// their own http.Server around Handler().
func (s *Server) Drain(ctx context.Context) error { return s.sched.drain(ctx) }

// statusWriter records the status code and body size the handler
// produced, so access logs show what was actually sent.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streaming handlers keep
// working through the logging wrapper.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer's
// optional interfaces (Hijacker, ReaderFrom, deadlines).
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// newRequestID mints a 12-hex-char request identifier.
func newRequestID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// validRequestID restricts inbound X-Request-ID values to a safe
// charset before they are echoed into headers and access logs — an
// unrestricted value could forge log fields (spaces let a client embed
// a fake "status duration id=" tail in the log line).
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// requestIDKey carries the request's correlation ID through the
// context so handlers can echo it into error envelopes.
type requestIDKey struct{}

// requestID returns the correlation ID the logging middleware minted
// (or accepted) for this request; empty outside the middleware.
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// logged wraps every request with a status-recording writer and a
// request ID: the ID is taken from an inbound X-Request-ID (so proxies
// can correlate) or minted fresh, echoed back in the response header,
// stored in the request context (error envelopes carry it), and
// included in the access log alongside the real status code.
//
// The middleware is also the per-route instrumentation point: after
// the mux dispatches, r.Pattern names the matched route, and the
// middleware bumps server.requests{route,status} and observes the
// request latency into the route's timing summary — so /v1/metrics
// breaks traffic down by route without any per-handler code.
func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if !validRequestID(id) {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			// Nothing was written: net/http will send 200 on return.
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		route := r.Pattern
		if route == "" {
			route = "(unmatched)"
		}
		s.reg.Counter(fmt.Sprintf("server.requests{route=%s,status=%d}", route, sw.status)).Inc()
		s.reg.Timing("server.latency{route=" + route + "}").Observe(elapsed.Microseconds())
		if s.cfg.Logger != nil {
			s.cfg.Logger.Printf("%s %s %d %dB %s id=%s",
				r.Method, r.URL.Path, sw.status, sw.bytes, elapsed, id)
		}
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// jsonContentType reports whether the request's declared body type is
// JSON. An absent Content-Type is accepted (curl-style clients); any
// other declared type is a 415.
func jsonContentType(r *http.Request) bool {
	ct := strings.TrimSpace(r.Header.Get("Content-Type"))
	if ct == "" {
		return true
	}
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = strings.TrimSpace(ct[:i])
	}
	ct = strings.ToLower(ct)
	return ct == "application/json" || ct == "text/json" || strings.HasSuffix(ct, "+json")
}

// decodeJSON decodes a body bounded by Config.MaxBodyBytes: non-JSON
// Content-Type is 415, oversized bodies 413, malformed JSON 400. It
// reports whether decoding succeeded.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if !jsonContentType(r) {
		s.httpError(w, r, http.StatusUnsupportedMediaType, api.CodeUnsupportedMedia,
			"Content-Type must be application/json", 0)
		return false
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.httpError(w, r, http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", mbe.Limit), 0)
		return false
	}
	s.httpError(w, r, http.StatusBadRequest, api.CodeBadRequest, "invalid JSON body: "+err.Error(), 0)
	return false
}

// httpError writes one error as the uniform envelope (code, message,
// retry hint, request ID).
func (s *Server) httpError(w http.ResponseWriter, r *http.Request, status int, code, msg string, retrySecs int) {
	if retrySecs > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retrySecs))
	}
	writeJSON(w, status, api.ErrorEnvelope{Err: api.ErrorDetail{
		Code:       code,
		Message:    msg,
		RetryAfter: retrySecs,
		RequestID:  requestID(r),
	}})
}

// retrySecs is the whole-second Retry-After hint; never 0 (that would
// invite an immediate retry, the opposite of backoff).
func (s *Server) retrySecs() int {
	secs := int(s.cfg.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// admit asks the scheduler for an execution slot, translating
// rejections into HTTP responses: 429 + Retry-After when the queue is
// full, 503 + Retry-After while draining, 504 when the endpoint
// deadline expired while waiting, and 499 for a client that went away
// while queued. ctx is the request's full deadline context: queue wait
// burns the same budget execution would. It reports whether the
// request may proceed; on true the caller must invoke the release
// closure when done.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, r *http.Request, timeout time.Duration) (func(), bool) {
	release, err := s.sched.acquire(ctx)
	if err == nil {
		return release, true
	}
	switch {
	case errors.Is(err, errOverloaded):
		s.httpError(w, r, http.StatusTooManyRequests, api.CodeOverloaded,
			"server overloaded: request queue is full", s.retrySecs())
	case errors.Is(err, errDraining):
		s.httpError(w, r, http.StatusServiceUnavailable, api.CodeUnavailable,
			"server is shutting down", s.retrySecs())
	case errors.Is(err, context.DeadlineExceeded):
		// The endpoint deadline expired before a slot freed up: same
		// timeout shape as an execution that ran out of time.
		s.reg.Counter("server.deadline_exceeded").Inc()
		s.httpError(w, r, http.StatusGatewayTimeout, api.CodeTimeout,
			fmt.Sprintf("no execution slot within the %s deadline", timeout), 0)
	default:
		// The client went away while queued.
		s.httpError(w, r, api.StatusClientClosedRequest, api.CodeCanceled,
			"request canceled while queued: "+err.Error(), 0)
	}
	return nil, false
}

// handleHealthLive is the liveness probe: the process is up and the
// mux is serving. Always 200 — restarting the process would not help
// anything this endpoint could report.
func (s *Server) handleHealthLive(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleHealthReady is the readiness probe: graph shape, LLM circuit
// breakers, and scheduler saturation in one report. "draining" answers
// 503 (stop routing traffic here); "degraded" still answers 200 — the
// server is serving, only answer fidelity is reduced while a breaker
// is open.
func (s *Server) handleHealthReady(w http.ResponseWriter, _ *http.Request) {
	g := s.cfg.Pipeline.Graph()
	inflight, queued, draining := s.sched.snapshot()
	resp := api.ReadyResponse{
		Status: "ready",
		Graph: api.ReadyGraph{
			Nodes:         g.NodeCount(),
			Relationships: g.RelationshipCount(),
			Version:       g.Version(),
		},
		Breakers:  s.cfg.Pipeline.BreakerStates(),
		Scheduler: api.ReadyScheduler{Inflight: inflight, Queued: queued, Draining: draining},
	}
	status := http.StatusOK
	switch {
	case draining:
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(s.retrySecs()))
	default:
		for _, st := range resp.Breakers {
			if st != "closed" {
				resp.Status = "degraded"
				break
			}
		}
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleSchema(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"entries": iyp.Schema(),
		"text":    iyp.SchemaText(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	stats := s.cfg.Pipeline.Graph().CollectStats()
	writeJSON(w, http.StatusOK, stats)
}

// handleMetrics reports runtime counters: the pipeline's event counts
// plus a structured snapshot of the prepared-query plan cache, so
// operators can watch cache effectiveness (hits vs misses) live.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"counters":   s.cfg.Pipeline.Metrics().Snapshot(),
		"plan_cache": s.cfg.Pipeline.PlanCacheStats(),
	})
}

// AskRequest is the /v1/ask input (one shared wire type; see
// internal/api).
type AskRequest = api.AskRequest

// runAsk is the request half of the ask handler: decode, validate,
// admit, execute. Errors are written on failure; on success the caller
// renders the answer in the negotiated encoding.
func (s *Server) runAsk(w http.ResponseWriter, r *http.Request) (*core.Answer, bool) {
	var req AskRequest
	if !s.decodeJSON(w, r, &req) {
		return nil, false
	}
	q := strings.TrimSpace(req.Question)
	if q == "" {
		s.httpError(w, r, http.StatusBadRequest, api.CodeBadRequest, "question is required", 0)
		return nil, false
	}
	if len(q) > s.cfg.MaxQuestionLen {
		s.httpError(w, r, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Sprintf("question exceeds %d bytes", s.cfg.MaxQuestionLen), 0)
		return nil, false
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.AskTimeout)
	defer cancel()
	release, ok := s.admit(ctx, w, r, s.cfg.AskTimeout)
	if !ok {
		return nil, false
	}
	defer release()
	ans, err := s.cfg.Pipeline.Ask(ctx, q)
	if err != nil {
		s.writeExecError(w, r, err, s.cfg.AskTimeout, api.CodeInternal, http.StatusInternalServerError)
		return nil, false
	}
	return ans, true
}

// CypherRequest is the /v1/cypher and /v1/explain input (one shared
// wire type; see internal/api).
type CypherRequest = api.CypherRequest

// decodeCypherRequest is the shared decode+validate step of the
// Cypher-shaped handlers (cypher and explain).
func (s *Server) decodeCypherRequest(w http.ResponseWriter, r *http.Request) (*CypherRequest, bool) {
	var req CypherRequest
	if !s.decodeJSON(w, r, &req) {
		return nil, false
	}
	if strings.TrimSpace(req.Query) == "" {
		s.httpError(w, r, http.StatusBadRequest, api.CodeBadRequest, "query is required", 0)
		return nil, false
	}
	return &req, true
}

// serverRowLimit is the effective /v1/cypher row cap.
func (s *Server) serverRowLimit() int {
	if s.cfg.CypherRowLimit < 0 {
		return 0 // negative config disables the cap
	}
	return s.cfg.CypherRowLimit
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(indexHTML))
}

// handleNotFound answers every unrouted path with the error envelope
// instead of the index page.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	s.httpError(w, r, http.StatusNotFound, api.CodeNotFound,
		fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path), 0)
}

// indexHTML is the embedded single-page UI: a question box, the answer,
// and the executed Cypher, as in the paper's web application.
const indexHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>ChatIYP — natural language access to the Internet Yellow Pages</title>
<style>
 body { font-family: system-ui, sans-serif; max-width: 780px; margin: 2rem auto; padding: 0 1rem; color: #222; }
 h1 { font-size: 1.4rem; } textarea { width: 100%; height: 4rem; font-size: 1rem; padding: .5rem; }
 button { padding: .5rem 1.2rem; font-size: 1rem; margin-top: .5rem; cursor: pointer; }
 pre { background: #f6f6f6; padding: .8rem; overflow-x: auto; border-radius: 6px; }
 .answer { background: #eef7ee; padding: .8rem; border-radius: 6px; margin-top: 1rem; }
 .err { background: #fbeaea; } .muted { color: #777; font-size: .85rem; }
</style>
</head>
<body>
<h1>ChatIYP</h1>
<p class="muted">Ask a natural-language question about Internet routing data
(ASes, prefixes, IXPs, countries). The system translates it to Cypher, runs it
on the IYP graph, and shows both the answer and the query.</p>
<textarea id="q" placeholder="What is the percentage of Japan's population in AS2497?"></textarea><br>
<button onclick="ask()">Ask</button>
<div id="out"></div>
<script>
async function ask() {
  const q = document.getElementById('q').value;
  const out = document.getElementById('out');
  out.innerHTML = '<p class="muted">thinking…</p>';
  try {
    const r = await fetch('/v1/ask', {method: 'POST', headers: {'Content-Type': 'application/json'}, body: JSON.stringify({question: q})});
    const d = await r.json();
    if (d.error) { out.innerHTML = '<div class="answer err">' + (d.error.message || d.error) + ' <span class="muted">(' + (d.error.code || 'error') + ')</span></div>'; return; }
    let html = '<div class="answer">' + d.answer + '</div>';
    if (d.cypher) html += '<p class="muted">executed Cypher:</p><pre>' + d.cypher + '</pre>';
    if (d.cypher_error) html += '<p class="muted">structured retrieval failed (' + d.cypher_error + '); semantic fallback used.</p>';
    html += '<p class="muted">' + d.duration_ms.toFixed(1) + ' ms</p>';
    out.innerHTML = html;
  } catch (e) { out.innerHTML = '<div class="answer err">' + e + '</div>'; }
}
</script>
</body>
</html>`
