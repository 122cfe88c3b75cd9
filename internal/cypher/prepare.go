package cypher

import (
	"context"
	"sync"
	"sync/atomic"

	"chatiyp/internal/graph"
)

// PreparedQuery is a query that has been parsed (and, lazily, planned)
// once and can be executed many times with different parameter
// bindings. It is safe for concurrent use: executions share one parsed
// AST and one plan, and the plan is rebuilt automatically when the
// graph it was derived against changes (see graph.Version).
//
//	pq, err := cypher.Prepare("MATCH (a:AS) WHERE a.asn = $n RETURN a.asn")
//	res, err := pq.Execute(g, map[string]any{"n": 2497}, cypher.Options{})
type PreparedQuery struct {
	text  string
	query *Query

	mu      sync.Mutex
	plan    *queryPlan
	replans atomic.Uint64
}

// Prepare parses a query for repeated execution. The returned error is
// a *SyntaxError, exactly as from Parse.
func Prepare(src string) (*PreparedQuery, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{text: src, query: q}, nil
}

// Text returns the source text the query was prepared from.
func (pq *PreparedQuery) Text() string { return pq.text }

// AST returns the parsed query. Callers must treat it as read-only: it
// is shared by every concurrent execution.
func (pq *PreparedQuery) AST() *Query { return pq.query }

// Replans reports how many times the plan was rebuilt after the first
// planning pass — each one corresponds to a graph write (or an options
// change) invalidating the previous plan.
func (pq *PreparedQuery) Replans() uint64 { return pq.replans.Load() }

// Execute runs the prepared query against g. The plan — per-MATCH
// index access paths plus the streaming executor's operator pipelines
// — is built on first use and reused until the graph's version moves
// or the index options change.
func (pq *PreparedQuery) Execute(g *graph.Graph, params map[string]any, opts Options) (*Result, error) {
	return pq.ExecuteContext(context.Background(), g, params, opts)
}

// ExecuteContext runs the prepared query under a cancellation context:
// when ctx is canceled or its deadline expires, execution aborts early
// with an error matching ErrCanceled (see ExecuteContext at package
// level for the check-interval guarantee).
func (pq *PreparedQuery) ExecuteContext(ctx context.Context, g *graph.Graph, params map[string]any, opts Options) (*Result, error) {
	return executeQueryPlanned(ctx, g, pq.query, pq.planFor(g, opts), params, opts)
}

// Describe returns the EXPLAIN-style access plan this prepared query
// would use against g — the same format as Explain, without re-parsing.
// A query that fails planning describes as its planning error.
func (pq *PreparedQuery) Describe(g *graph.Graph, opts Options) string {
	plan, err := describeAll(g, pq.query, opts)
	if err != nil {
		return err.Error()
	}
	return plan
}

// planFor returns the current plan for (g, opts), rebuilding it when
// stale. Staleness means: first use, a different graph, a moved graph
// version (some write happened since planning), or a flipped
// DisableIndexes option.
func (pq *PreparedQuery) planFor(g *graph.Graph, opts Options) *queryPlan {
	v := g.Version()
	pq.mu.Lock()
	defer pq.mu.Unlock()
	p := pq.plan
	if p != nil && p.graph == g && p.version == v && p.disableIndexes == opts.DisableIndexes {
		return p
	}
	if p != nil {
		pq.replans.Add(1)
	}
	pq.plan = planQuery(g, pq.query, opts)
	return pq.plan
}
