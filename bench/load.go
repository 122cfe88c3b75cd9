package main

import (
	"context"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"chatiyp/client"
	"chatiyp/internal/api"
)

// opTimeout bounds one request on the harness side. The server's own
// deadlines (15 s ask, 10 s cypher) answer first; this only keeps a
// wedged server from hanging the run.
const opTimeout = 30 * time.Second

// outcome is what one executed op produced.
type outcome struct {
	sent    time.Time
	latency time.Duration
	class   string // observed class
	kind    string
	failed  bool   // transport error, non-2xx, degraded or empty answer
	correct bool   // oracle agreed (false when failed)
	errText string // first line of the failure, for the report
}

// countingTransport counts response body bytes, so bytes per op can be
// reported without the SDK exposing them.
type countingTransport struct {
	inner http.RoundTripper
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.inner.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// loadClient is the closed-loop client: one SDK client on one
// keep-alive connection. Retries are off so a 429 or 503 is a failure
// and not a silent second attempt.
type loadClient struct {
	sdk   *client.Client
	bytes *atomic.Int64
}

func newLoadClient(base string) (*loadClient, error) {
	tr := &countingTransport{inner: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	sdk, err := client.New(base, client.WithRetries(0), client.WithHTTPClient(&http.Client{Transport: tr}))
	if err != nil {
		return nil, err
	}
	return &loadClient{sdk: sdk, bytes: &tr.bytes}, nil
}

// reply is what the server answered to one op: exactly one of ask and
// cypher is set when err is nil.
type reply struct {
	ask     *api.AskResponse
	cypher  *api.CypherResponse
	err     error
	sent    time.Time
	latency time.Duration
}

// send performs one op and times the round trip.
func (c *loadClient) send(p op) reply {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	r := reply{sent: time.Now()}
	if p.Ask {
		r.ask, r.err = c.sdk.Ask(ctx, p.Text)
	} else {
		r.cypher, r.err = c.sdk.Query(ctx, p.Text, p.Params)
	}
	r.latency = time.Since(r.sent)
	return r
}

// judge classifies a reply: failed (transport error, non-2xx, degraded
// or empty answer) or not, and whether the oracle agrees with it.
func judge(orc *oracle, p op, r reply) outcome {
	out := outcome{sent: r.sent, latency: r.latency, class: p.Class, kind: p.Kind}
	switch {
	case r.err != nil:
		out.failed, out.errText = true, r.err.Error()
	case !p.Ask:
		out.correct = orc.checkCypher(p, r.cypher)
	case r.ask.Degraded:
		out.failed, out.errText = true, "degraded answer: "+r.ask.DegradedReason
	case r.ask.Answer == "":
		out.failed, out.errText = true, "empty answer"
	default:
		out.class = classMiss
		if r.ask.CacheHit {
			out.class = classHit
		}
		out.correct = orc.checkAsk(p, r.ask)
	}
	return out
}

// runClosedLoop drives ops through the client, each op sent only after
// the previous reply arrived. It stops early (returning fewer outcomes
// than ops) once deadline has passed.
func runClosedLoop(c *loadClient, orc *oracle, ops []op, deadline time.Time) ([]outcome, time.Duration) {
	outs := make([]outcome, 0, len(ops))
	start := time.Now()
	for _, p := range ops {
		if time.Now().After(deadline) {
			break
		}
		outs = append(outs, judge(orc, p, c.send(p)))
	}
	return outs, time.Since(start)
}
