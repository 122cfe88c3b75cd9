package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"chatiyp/internal/api"
	"chatiyp/internal/core"
	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
	"chatiyp/internal/llm"
	"chatiyp/internal/metrics"
)

func newTestServer(t testing.TB) (*Server, *iyp.World) {
	t.Helper()
	g, w, err := iyp.Build(iyp.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := llm.DefaultSimConfig(core.BuildLexicon(g))
	cfg.ErrorScale = 0
	p, err := core.New(core.Config{Graph: g, Model: llm.NewSim(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Pipeline: p})
	if err != nil {
		t.Fatal(err)
	}
	return s, w
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, &buf)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestNewRequiresPipeline(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoPipeline) {
		t.Errorf("err = %v", err)
	}
}

func TestHealth(t *testing.T) {
	s, _ := newTestServer(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("status = %d", rec.Code)
	}
}

func TestAskEndToEnd(t *testing.T) {
	s, w := newTestServer(t)
	q := fmt.Sprintf("What is the name of AS%d?", w.ASes[0].ASN)
	rec := postJSON(t, s.Handler(), "/v1/ask", AskRequest{Question: q})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", rec.Code, rec.Body.String())
	}
	var resp api.AskResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Answer, w.ASes[0].Name) {
		t.Errorf("answer %q missing %q", resp.Answer, w.ASes[0].Name)
	}
	if !strings.Contains(resp.Cypher, "NAME") {
		t.Errorf("cypher = %q", resp.Cypher)
	}
	if len(resp.Trace) == 0 {
		t.Error("trace missing")
	}
}

func TestAskValidation(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	if rec := postJSON(t, h, "/v1/ask", AskRequest{Question: ""}); rec.Code != http.StatusBadRequest {
		t.Errorf("empty question status = %d", rec.Code)
	}
	if rec := postJSON(t, h, "/v1/ask", AskRequest{Question: strings.Repeat("x", 5000)}); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized question status = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/ask", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad json status = %d", rec.Code)
	}
	// GET on the POST-only route falls through to the catch-all and 404s.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/v1/ask", nil))
	if rec2.Code != http.StatusNotFound && rec2.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/ask status = %d", rec2.Code)
	}
}

func TestCypherEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	rec := postJSON(t, s.Handler(), "/v1/cypher", CypherRequest{Query: "MATCH (c:Country) RETURN count(c)"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", rec.Code, rec.Body.String())
	}
	var resp api.CypherResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 {
		t.Errorf("rows = %v", resp.Rows)
	}
}

func TestCypherEndpointParams(t *testing.T) {
	s, w := newTestServer(t)
	rec := postJSON(t, s.Handler(), "/v1/cypher", CypherRequest{
		Query:  "MATCH (a:AS {asn: $asn}) RETURN a.name",
		Params: map[string]any{"asn": w.ASes[0].ASN},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), w.ASes[0].Name) {
		t.Errorf("body = %s", rec.Body.String())
	}
}

func TestCypherEndpointErrors(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	if rec := postJSON(t, h, "/v1/cypher", CypherRequest{Query: "NOT CYPHER"}); rec.Code != http.StatusBadRequest {
		t.Errorf("syntax error status = %d", rec.Code)
	}
	if rec := postJSON(t, h, "/v1/cypher", CypherRequest{Query: ""}); rec.Code != http.StatusBadRequest {
		t.Errorf("empty query status = %d", rec.Code)
	}
	// Valid syntax, runtime failure (unknown parameter).
	if rec := postJSON(t, h, "/v1/cypher", CypherRequest{Query: "MATCH (a:AS {asn: $nope}) RETURN a"}); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("runtime error status = %d", rec.Code)
	}
}

func TestSchemaAndStats(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/schema", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "POPULATION") {
		t.Errorf("schema: %d %s", rec.Code, rec.Body.String()[:80])
	}
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec2.Code != http.StatusOK || !strings.Contains(rec2.Body.String(), "Nodes") {
		t.Errorf("stats: %d", rec2.Code)
	}
}

func TestIndexPage(t *testing.T) {
	s, _ := newTestServer(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ChatIYP") {
		t.Errorf("index: %d", rec.Code)
	}
	rec2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec2.Code != http.StatusNotFound {
		t.Errorf("unknown path status = %d", rec2.Code)
	}
}

func TestListenAndServeGracefulShutdown(t *testing.T) {
	s, _ := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- s.ListenAndServe(ctx, "127.0.0.1:0") }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("shutdown err = %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func TestVectorFallbackVisibleInResponse(t *testing.T) {
	s, _ := newTestServer(t)
	rec := postJSON(t, s.Handler(), "/v1/ask", AskRequest{Question: "Tell me something interesting about large exchange operators"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp api.AskResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.CypherError != "" && !resp.Fallback {
		t.Error("fallback flag not surfaced")
	}
}

func TestExplainEndpoint(t *testing.T) {
	s, w := newTestServer(t)
	rec := postJSON(t, s.Handler(), "/v1/explain", CypherRequest{
		Query: fmt.Sprintf("MATCH (a:AS {asn: %d})-[:ORIGINATE]->(p:Prefix) RETURN p.prefix", w.ASes[0].ASN),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "property index (AS, asn)") {
		t.Errorf("plan missing index usage: %s", rec.Body.String())
	}
	if rec := postJSON(t, s.Handler(), "/v1/explain", CypherRequest{Query: "BROKEN"}); rec.Code != http.StatusBadRequest {
		t.Errorf("broken query status = %d", rec.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, w := newTestServer(t)
	h := s.Handler()
	// Drive some Cypher traffic so the plan cache has counters to show.
	query := fmt.Sprintf("MATCH (a:AS {asn: %d}) RETURN a.asn", w.ASes[0].ASN)
	for i := 0; i < 3; i++ {
		rec := postJSON(t, h, "/v1/cypher", CypherRequest{Query: query})
		if rec.Code != http.StatusOK {
			t.Fatalf("cypher status %d: %s", rec.Code, rec.Body)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Counters  map[string]int64 `json:"counters"`
		PlanCache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
			Size   int    `json:"size"`
		} `json:"plan_cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.PlanCache.Misses == 0 || resp.PlanCache.Hits < 2 {
		t.Fatalf("plan cache stats missing: %+v", resp.PlanCache)
	}
	if resp.Counters["cypher.executions"] < 3 {
		t.Fatalf("counters = %v", resp.Counters)
	}
}

func TestCypherRowCapTruncates(t *testing.T) {
	g, _, err := iyp.Build(iyp.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Config{Graph: g, Model: llm.NewSim(llm.DefaultSimConfig(core.BuildLexicon(g)))})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Pipeline: p, CypherRowLimit: 5})
	if err != nil {
		t.Fatal(err)
	}
	rec := postJSON(t, s.Handler(), "/v1/cypher", CypherRequest{Query: "MATCH (a:AS) RETURN a.asn"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp api.CypherResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 5 || !resp.Truncated {
		t.Fatalf("rows=%d truncated=%v, want 5/true", len(resp.Rows), resp.Truncated)
	}
	// Within the cap: no truncation flag.
	rec = postJSON(t, s.Handler(), "/v1/cypher", CypherRequest{Query: "MATCH (a:AS) RETURN a.asn LIMIT 3"})
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 3 || resp.Truncated {
		t.Fatalf("rows=%d truncated=%v, want 3/false", len(resp.Rows), resp.Truncated)
	}
}

func TestMetricsExposeStreamingCounters(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	rec := postJSON(t, h, "/v1/cypher", CypherRequest{Query: "MATCH (a:AS) RETURN a.asn LIMIT 2"})
	if rec.Code != http.StatusOK {
		t.Fatalf("cypher status %d: %s", rec.Code, rec.Body)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, req)
	var resp struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(mrec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Counters["cypher.rows_streamed"] < 2 {
		t.Errorf("cypher.rows_streamed = %d, want >= 2", resp.Counters["cypher.rows_streamed"])
	}
	if resp.Counters["cypher.limit_early_exit"] < 1 {
		t.Errorf("cypher.limit_early_exit = %d, want >= 1", resp.Counters["cypher.limit_early_exit"])
	}
}

// TestMetricsExposeParallelCounters checks the morsel-executor gauges
// are mirrored at /v1/metrics. Their values are process-global and
// depend on GOMAXPROCS (a 1-core run never engages the parallel path),
// so this asserts presence, not magnitude.
func TestMetricsExposeParallelCounters(t *testing.T) {
	s, _ := newTestServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	mrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(mrec, req)
	var resp struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(mrec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"cypher.parallel_queries", "cypher.morsels_dispatched"} {
		if _, ok := resp.Counters[k]; !ok {
			t.Errorf("metrics response missing %q", k)
		}
	}
}

// newCustomServer builds a server over its own metrics registry (so
// scheduler gauges don't bleed between tests) with caller-tuned config.
func newCustomServer(t testing.TB, tune func(*Config)) *Server {
	t.Helper()
	g, _, err := iyp.Build(iyp.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	simCfg := llm.DefaultSimConfig(core.BuildLexicon(g))
	simCfg.ErrorScale = 0
	p, err := core.New(core.Config{Graph: g, Model: llm.NewSim(simCfg), Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Pipeline: p}
	if tune != nil {
		tune(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOversizedBodyReturns413(t *testing.T) {
	s := newCustomServer(t, func(c *Config) { c.MaxBodyBytes = 256 })
	h := s.Handler()
	for _, path := range []string{"/v1/ask", "/v1/cypher", "/v1/explain"} {
		body := fmt.Sprintf(`{"question": %q, "query": %q}`, strings.Repeat("x", 1024), strings.Repeat("y", 1024))
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413", path, rec.Code)
		}
		if detail := decodeEnvelope(t, rec.Body.Bytes()); detail.Code != api.CodeBodyTooLarge || detail.Message == "" {
			t.Errorf("%s: 413 envelope = %+v", path, detail)
		}
	}
}

func TestRequestIDAndStatusLogging(t *testing.T) {
	var buf bytes.Buffer
	s := newCustomServer(t, func(c *Config) { c.Logger = log.New(&buf, "", 0) })
	h := s.Handler()

	// A fresh ID is minted and echoed.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
	if id := rec.Header().Get("X-Request-ID"); len(id) != 12 {
		t.Errorf("X-Request-ID = %q, want 12 hex chars", id)
	}

	// An inbound ID is honored.
	req := httptest.NewRequest(http.MethodGet, "/nope", nil)
	req.Header.Set("X-Request-ID", "upstream-7")
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if id := rec2.Header().Get("X-Request-ID"); id != "upstream-7" {
		t.Errorf("X-Request-ID = %q, want upstream-7", id)
	}

	// The access log carries the real status codes and the IDs.
	logs := buf.String()
	if !strings.Contains(logs, " 200 ") {
		t.Errorf("log missing 200 status: %q", logs)
	}
	if !strings.Contains(logs, " 404 ") {
		t.Errorf("log missing 404 status: %q", logs)
	}
	if !strings.Contains(logs, "id=upstream-7") {
		t.Errorf("log missing request id: %q", logs)
	}
}

// slowCrossJoin is a chained cross product over the AS label: large
// enough (80^4 bindings) that it cannot complete inside the tight test
// deadlines, so only cancellation ends it.
const slowCrossJoin = "MATCH (a:AS) MATCH (b:AS) MATCH (c:AS) MATCH (d:AS) RETURN count(*)"

func TestCypherTimeoutShape(t *testing.T) {
	s := newCustomServer(t, func(c *Config) { c.CypherTimeout = 30 * time.Millisecond })
	start := time.Now()
	rec := postJSON(t, s.Handler(), "/v1/cypher", CypherRequest{Query: slowCrossJoin})
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("timed-out query held the worker for %v", el)
	}
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d body = %s, want 504", rec.Code, rec.Body.String())
	}
	if detail := decodeEnvelope(t, rec.Body.Bytes()); detail.Code != api.CodeTimeout || detail.Message == "" {
		t.Fatalf("timeout envelope = %+v", detail)
	}
	// The abort is visible in the mirrored cancellation counters.
	snap := s.cfg.Pipeline.Metrics().Snapshot()
	if snap["cypher.canceled"] < 1 || snap["cypher.deadline_exceeded"] < 1 {
		t.Errorf("cancel counters = canceled:%d deadline:%d", snap["cypher.canceled"], snap["cypher.deadline_exceeded"])
	}
	if snap["server.deadline_exceeded"] < 1 {
		t.Errorf("server.deadline_exceeded = %d", snap["server.deadline_exceeded"])
	}
}

func TestAskTimeoutShape(t *testing.T) {
	s := newCustomServer(t, func(c *Config) { c.AskTimeout = time.Nanosecond })
	rec := postJSON(t, s.Handler(), "/v1/ask", AskRequest{Question: "What is the name of AS1?"})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d body = %s, want 504", rec.Code, rec.Body.String())
	}
	if detail := decodeEnvelope(t, rec.Body.Bytes()); detail.Code != api.CodeTimeout {
		t.Fatalf("body = %s, want the timeout envelope", rec.Body.String())
	}
}

func TestOverloadReturns429WithRetryAfter(t *testing.T) {
	s := newCustomServer(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.MaxQueue = -1 // no queueing: reject as soon as the slot is busy
		c.CypherTimeout = 2 * time.Second
		c.RetryAfter = 3 * time.Second
	})
	h := s.Handler()
	reg := s.reg
	slowDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		var buf bytes.Buffer
		_ = json.NewEncoder(&buf).Encode(CypherRequest{Query: slowCrossJoin})
		req := httptest.NewRequest(http.MethodPost, "/v1/cypher", &buf)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		slowDone <- rec
	}()
	waitFor(t, func() bool { return reg.Gauge("server.inflight").Value() == 1 })

	rec := postJSON(t, h, "/v1/cypher", CypherRequest{Query: "MATCH (c:Country) RETURN count(c)"})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d body = %s, want 429", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}
	// The slot-holder ends either on its deadline (504) or on the
	// intermediate-row bound (422) — which fires first is a machine-speed
	// race, and this test only cares that the slot was held long enough
	// to produce the 429 above and is then released.
	if slow := <-slowDone; slow.Code != http.StatusGatewayTimeout && slow.Code != http.StatusUnprocessableEntity {
		t.Errorf("slow request status = %d, want 504 or 422", slow.Code)
	}
	if got := reg.Counter("server.rejected").Value(); got < 1 {
		t.Errorf("server.rejected = %d", got)
	}
}

func TestDrainRejectsWith503(t *testing.T) {
	s := newCustomServer(t, nil)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, body := range []struct {
		path string
		v    any
	}{
		{"/v1/ask", AskRequest{Question: "What is the name of AS1?"}},
		{"/v1/cypher", CypherRequest{Query: "MATCH (c:Country) RETURN count(c)"}},
	} {
		rec := postJSON(t, s.Handler(), body.path, body.v)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s during drain: status = %d, want 503", body.path, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s during drain: missing Retry-After", body.path)
		}
	}
	// Cheap endpoints stay up through the drain (health checks must
	// keep passing until the process exits).
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("health during drain: status = %d", rec.Code)
	}
}

// TestConcurrentCypherSaturation drives the full handler stack past
// its concurrency limit from many goroutines (via /v1/cypher, the
// cheaper of the two scheduled endpoints); under -race this exercises
// the scheduler, pipeline, plan cache and cancellation paths together.
func TestConcurrentCypherSaturation(t *testing.T) {
	s := newCustomServer(t, func(c *Config) {
		c.MaxConcurrent = 2
		c.MaxQueue = 2
	})
	h := s.Handler()
	var wg sync.WaitGroup
	codes := make([]int, 24)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			_ = json.NewEncoder(&buf).Encode(CypherRequest{Query: "MATCH (a:AS) RETURN a.asn LIMIT 5"})
			req := httptest.NewRequest(http.MethodPost, "/v1/cypher", &buf)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			codes[i] = rec.Code
		}(i)
	}
	wg.Wait()
	okCount := 0
	for _, code := range codes {
		switch code {
		case http.StatusOK:
			okCount++
		case http.StatusTooManyRequests:
			// acceptable under saturation
		default:
			t.Errorf("unexpected status %d", code)
		}
	}
	if okCount == 0 {
		t.Fatal("no request succeeded under saturation")
	}
	reg := s.reg
	if reg.Gauge("server.inflight").Value() != 0 || reg.Gauge("server.queued").Value() != 0 {
		t.Fatalf("levels not restored: %v", reg.Snapshot())
	}
}

func TestForgedRequestIDReplaced(t *testing.T) {
	var buf bytes.Buffer
	s := newCustomServer(t, func(c *Config) { c.Logger = log.New(&buf, "", 0) })
	req := httptest.NewRequest(http.MethodGet, "/v1/health", nil)
	req.Header.Set("X-Request-ID", "x 200 0B 1ms id=victim")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if id := rec.Header().Get("X-Request-ID"); len(id) != 12 || strings.Contains(id, " ") {
		t.Errorf("forged id not replaced: %q", id)
	}
	if strings.Contains(buf.String(), "id=victim") {
		t.Errorf("forged id reached the log: %q", buf.String())
	}
}

// TestMetricsExposeRetrievalCounters checks the retrieval-tier gauges —
// ANN searches and the semantic answer cache — are mirrored at
// /v1/metrics even while the cache is disabled (presence, not
// magnitude; ann_searches is process-global).
func TestMetricsExposeRetrievalCounters(t *testing.T) {
	s, _ := newTestServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	mrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(mrec, req)
	var resp struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(mrec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"vector.ann_searches", "vector.hnsw_replaces", "semcache.hits", "semcache.misses", "semcache.stale", "semcache.size"} {
		if _, ok := resp.Counters[k]; !ok {
			t.Errorf("metrics response missing %q", k)
		}
	}
}

// TestMetricsExposePersistCounters checks the persistence-tier gauges
// are mirrored at /v1/metrics even for a server with no -data-dir
// (presence with zero values keeps the surface stable for scrapers).
func TestMetricsExposePersistCounters(t *testing.T) {
	s, _ := newTestServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	mrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(mrec, req)
	var resp struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(mrec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"persist.wal_appends", "persist.wal_bytes", "persist.checkpoints", "persist.replay_records", "graph.load_ns"} {
		if _, ok := resp.Counters[k]; !ok {
			t.Errorf("metrics response missing %q", k)
		}
	}
}

// TestSemCacheWarmAskOverHTTP drives the cache end to end through the
// v1 surface: the second identical question answers cache_hit true and
// the hit shows up at /v1/metrics.
func TestSemCacheWarmAskOverHTTP(t *testing.T) {
	s := newCustomServer(t, func(c *Config) { c.SemCacheThreshold = 0.97 })
	h := s.Handler()
	const body = `{"question": "Which country code is AS2497 registered in?"}`
	var warm struct {
		CacheHit   bool    `json:"cache_hit"`
		Answer     string  `json:"answer"`
		DurationMS float64 `json:"duration_ms"`
	}
	for i := 0; i < 2; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/ask", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("ask %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &warm); err != nil {
			t.Fatal(err)
		}
		if want := i == 1; warm.CacheHit != want {
			t.Fatalf("ask %d: cache_hit = %v, want %v", i, warm.CacheHit, want)
		}
	}
	if warm.Answer == "" {
		t.Error("cached answer empty")
	}
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	var resp struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(mrec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Counters["semcache.hits"] < 1 {
		t.Errorf("semcache.hits = %d, want >= 1", resp.Counters["semcache.hits"])
	}
	if resp.Counters["semcache.size"] < 1 {
		t.Errorf("semcache.size = %d, want >= 1", resp.Counters["semcache.size"])
	}
}

// TestStatsOnColdGraphStaysCold: GET /v1/stats on a graph loaded cold
// from a columnar snapshot returns what the graph it was encoded from
// returns, and still does after writes through /v1/cypher on both; and
// the bytes the first write allocates do not grow with the world, from
// the small one to one four times its size, as they would if the first
// write built a second copy of it.
func TestStatsOnColdGraphStaysCold(t *testing.T) {
	type served struct {
		h    http.Handler
		logs *bytes.Buffer
	}
	serve := func(g *graph.Graph) served {
		var logs bytes.Buffer
		simCfg := llm.DefaultSimConfig(core.BuildLexicon(g))
		p, err := core.New(core.Config{Graph: g, Model: llm.NewSim(simCfg), Metrics: metrics.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Pipeline: p, Logger: log.New(&logs, "", 0)})
		if err != nil {
			t.Fatal(err)
		}
		return served{s.Handler(), &logs}
	}
	stats := func(h http.Handler) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/stats: %d %s", rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	write := func(h http.Handler) {
		if rec := postJSON(t, h, "/v1/cypher", CypherRequest{Query: "CREATE (:StatsNote)"}); rec.Code != http.StatusOK {
			t.Fatalf("write: %d %s", rec.Code, rec.Body.String())
		}
	}
	firstWrite := map[int]uint64{}
	for _, scale := range []int{1, 4} {
		cfg := iyp.SmallConfig()
		cfg.NumASes *= scale
		cfg.NumIXPs *= scale
		cfg.NumFacilities *= scale
		cfg.NumDomains *= scale
		cfg.PrefixBudget *= scale
		built, _, err := iyp.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := built.View().MarshalColumnar(graph.ColMeta{})
		if err != nil {
			t.Fatal(err)
		}
		cold, _, err := graph.LoadColumnarBytes(data, graph.ColLoadOptions{VerifyChecksums: true})
		if err != nil {
			t.Fatal(err)
		}
		coldS, builtS := serve(cold), serve(built)
		if got, want := stats(coldS.h), stats(builtS.h); got != want {
			t.Fatalf("scale %d: /v1/stats on the cold graph:\n%s\non the graph it was encoded from:\n%s", scale, got, want)
		}
		var decoded graph.Stats
		if err := json.Unmarshal([]byte(stats(coldS.h)), &decoded); err != nil || decoded.Nodes != built.NodeCount() || len(decoded.RelsByType) == 0 {
			t.Fatalf("scale %d: /v1/stats body does not decode to the graph's Stats: %+v, %v", scale, decoded, err)
		}

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		write(coldS.h)
		runtime.ReadMemStats(&after)
		firstWrite[scale] = after.TotalAlloc - before.TotalAlloc
		write(coldS.h)
		write(builtS.h)
		write(builtS.h)
		if got, want := stats(coldS.h), stats(builtS.h); got != want {
			t.Fatalf("scale %d: after two writes, /v1/stats on the cold graph:\n%s\non the graph it was encoded from:\n%s", scale, got, want)
		}
		if strings.Contains(coldS.logs.String(), "hydrated") {
			t.Fatalf("scale %d: the server logs a hydration: %q", scale, coldS.logs.String())
		}
	}
	if small, big := firstWrite[1], firstWrite[4]; big > small+small/2 {
		t.Fatalf("the first write allocates %d bytes on the small world and %d on one 4x its size; it must not grow with the world", small, big)
	}
	t.Logf("first write: %d bytes on the small world, %d on one 4x its size", firstWrite[1], firstWrite[4])
}
