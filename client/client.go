// Package client is the Go SDK for the ChatIYP v1 HTTP API: ask
// natural-language questions, run raw Cypher (materialized, paginated,
// or streamed over NDJSON), and explain plans against a remote ChatIYP
// server.
//
//	c, err := client.New("http://localhost:8080")
//	if err != nil { ... }
//	ans, err := c.Ask(ctx, "What is the percentage of Japan's population in AS2497?")
//
// Failures carry a typed *APIError with the server's stable error code
// and request ID; transient rejections (429 overloaded, 503 draining)
// are retried automatically, honoring the server's Retry-After hint.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"chatiyp/internal/api"
)

// Client talks to one ChatIYP server. Safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	// sleep is swappable for tests; it must respect ctx.
	sleep func(ctx context.Context, d time.Duration) error
	// jitter maps a backoff ceiling to the actual wait (full jitter by
	// default — a uniform draw in [0, d) — so a fleet of clients
	// rejected together does not retry together). Swappable for tests.
	jitter func(d time.Duration) time.Duration
}

// retryCap bounds the exponential backoff ceiling between attempts.
const retryCap = 30 * time.Second

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (timeouts,
// transport, instrumentation). The default client has no overall
// timeout: streaming responses live as long as the query runs, so
// deadlines belong on the per-call context.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetries sets how many times a transient rejection (429, 503) is
// retried before the error is returned (default 2; 0 disables).
func WithRetries(n int) Option {
	return func(c *Client) { c.retries = n }
}

// New builds a client for the server at baseURL (scheme and host, e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: invalid base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL must be http(s), got %q", baseURL)
	}
	c := &Client{
		base:    strings.TrimRight(u.String(), "/"),
		hc:      &http.Client{},
		retries: 2,
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		},
		jitter: func(d time.Duration) time.Duration {
			if d <= 0 {
				return 0
			}
			return time.Duration(rand.Int64N(int64(d)))
		},
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// APIError is a server-reported failure: the HTTP status plus the v1
// error envelope's stable code, message, backoff hint and request ID.
type APIError struct {
	Status     int
	Code       string
	Message    string
	RetryAfter time.Duration
	RequestID  string
}

func (e *APIError) Error() string {
	msg := fmt.Sprintf("chatiyp api: %s (%d): %s", e.Code, e.Status, e.Message)
	if e.RequestID != "" {
		msg += " [request " + e.RequestID + "]"
	}
	return msg
}

// Temporary reports whether retrying the same request later may
// succeed (server overloaded, draining, or out of slot time).
func (e *APIError) Temporary() bool {
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retryable is the subset of Temporary the client auto-retries: 504
// means the server already burned a full deadline on the request, so
// only the fast rejections are worth repeating.
func (e *APIError) retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// Ask answers one natural-language question.
func (c *Client) Ask(ctx context.Context, question string) (*api.AskResponse, error) {
	var resp api.AskResponse
	err := c.postJSON(ctx, "/v1/ask", api.AskRequest{Question: question}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// AskBatch answers independent questions in one request; results come
// back in input order, each succeeding or failing on its own. workers
// bounds the server-side concurrency for this batch (0 lets the server
// choose).
func (c *Client) AskBatch(ctx context.Context, questions []string, workers int) ([]api.AskBatchResult, error) {
	var resp api.AskBatchResponse
	err := c.postJSON(ctx, "/v1/ask/batch", api.AskBatchRequest{Questions: questions, Workers: workers}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Query executes raw Cypher and materializes the full result (bounded
// by the server's row cap; check Truncated).
func (c *Client) Query(ctx context.Context, query string, params map[string]any) (*api.CypherResponse, error) {
	var resp api.CypherResponse
	err := c.postJSON(ctx, "/v1/cypher", api.CypherRequest{Query: query, Params: params}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// QueryPage fetches one page of a paginated result. The query must be
// read-only (the server answers bad_request for write clauses — each
// page re-executes the query, which would apply writes again). Start
// with an empty cursor; pass NextCursor back verbatim for the
// following page (an empty NextCursor means the result is exhausted).
// The server invalidates cursors when the graph changes — an *APIError
// with code "stale_cursor" means restart from the first page.
func (c *Client) QueryPage(ctx context.Context, query string, params map[string]any, cursor string, pageSize int) (*api.CypherResponse, error) {
	if pageSize <= 0 {
		pageSize = 100
	}
	var resp api.CypherResponse
	err := c.postJSON(ctx, "/v1/cypher", api.CypherRequest{
		Query: query, Params: params, Cursor: cursor, PageSize: pageSize,
	}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Explain returns the server's access plan for a query without
// executing it.
func (c *Client) Explain(ctx context.Context, query string) (string, error) {
	var resp api.ExplainResponse
	err := c.postJSON(ctx, "/v1/explain", api.CypherRequest{Query: query}, &resp)
	if err != nil {
		return "", err
	}
	return resp.Plan, nil
}

// Health checks the server is up.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/health", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeAPIError(resp)
	}
	return nil
}

// postJSON runs one JSON round trip with transparent retry of
// transient rejections.
func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	resp, err := c.post(ctx, path, in, api.MediaJSON)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeAPIError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

// post sends the request, retrying 429/503 rejections with the
// server's Retry-After hint (bounded, context-aware). The returned
// response is either 200 or the final failed attempt; the caller owns
// the body.
func (c *Client) post(ctx context.Context, path string, in any, accept string) (*http.Response, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, fmt.Errorf("client: encoding %s request: %w", path, err)
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", api.MediaJSON)
		req.Header.Set("Accept", accept)
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK || attempt >= c.retries {
			return resp, nil
		}
		apiErr := decodeAPIError(resp)
		// This attempt's body is finished with either way — close it
		// here, or every rejected attempt leaks a connection.
		resp.Body.Close()
		var ae *APIError
		if !errors.As(apiErr, &ae) || !ae.retryable() {
			return nil, apiErr
		}
		// Exponential backoff with full jitter: the server's Retry-After
		// hint (or 1s) seeds the ceiling, doubled per attempt and capped;
		// the actual wait is a uniform draw below the ceiling so clients
		// rejected together do not come back together.
		base := ae.RetryAfter
		if base <= 0 {
			base = time.Second
		}
		ceiling := base << attempt
		if ceiling > retryCap || ceiling < base { // < base: shift overflow
			ceiling = retryCap
		}
		wait := c.jitter(ceiling)
		// If the context's deadline cannot fit the wait, the retry would
		// only burn server capacity on a request whose client is about to
		// give up — stop now and surface the server's answer.
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= wait {
			return nil, apiErr
		}
		if err := c.sleep(ctx, wait); err != nil {
			return nil, apiErr // context gave up first; surface the server's answer
		}
	}
}

// Ready fetches the server's readiness report: graph shape, LLM
// circuit-breaker states, scheduler saturation. The report is returned
// whenever the server produced one — including alongside a non-nil
// error when the server answered 503 because it is draining — so
// callers can inspect Status ("ready", "degraded", "draining") either
// way.
func (c *Client) Ready(ctx context.Context) (*api.ReadyResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/health/ready", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if err != nil {
		return nil, fmt.Errorf("client: reading readiness response: %w", err)
	}
	var ready api.ReadyResponse
	if jsonErr := json.Unmarshal(raw, &ready); jsonErr == nil && ready.Status != "" {
		if resp.StatusCode == http.StatusOK {
			return &ready, nil
		}
		return &ready, &APIError{
			Status:  resp.StatusCode,
			Code:    api.CodeUnavailable,
			Message: "server not ready: " + ready.Status,
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return nil, decodeAPIError(resp)
}

// decodeAPIError turns a non-200 response into an *APIError. Envelope
// bodies fill in the stable code; anything else (a proxy's HTML, say)
// degrades to the raw body as the message. The body is
// drained but not closed.
func decodeAPIError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<10))
	e := &APIError{Status: resp.StatusCode, RequestID: resp.Header.Get("X-Request-ID")}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		e.RetryAfter = time.Duration(secs) * time.Second
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err == nil && env.Err.Code != "" {
		e.Code = env.Err.Code
		e.Message = env.Err.Message
		if e.RequestID == "" {
			e.RequestID = env.Err.RequestID
		}
		if e.RetryAfter == 0 && env.Err.RetryAfter > 0 {
			e.RetryAfter = time.Duration(env.Err.RetryAfter) * time.Second
		}
		return e
	}
	e.Code = "http_" + strconv.Itoa(resp.StatusCode)
	e.Message = strings.TrimSpace(string(raw))
	return e
}
