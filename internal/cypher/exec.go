package cypher

import (
	"context"
	"errors"
	"sort"

	"chatiyp/internal/graph"
)

// Options tunes query execution.
type Options struct {
	// MaxRows caps how many rows a blocking operator buffers: a sort,
	// an aggregation, a multi-pattern MATCH's cross product for one
	// input row, and a write clause's drained input. Exceeding it
	// aborts the query with ErrTooManyRows. Zero means the default of
	// 1,000,000.
	MaxRows int
	// MaxVarLength caps unbounded variable-length patterns ([*..]).
	// Zero means the default of 6.
	MaxVarLength int
	// DisableIndexes forces label scans even when a property index
	// exists. Used by the index-ablation benchmark.
	DisableIndexes bool
	// RowLimit caps the number of result rows returned to the caller.
	// When the cap cuts rows off, Result.Truncated is set instead of
	// returning an error, and a read-only query stops pulling — an
	// unbounded scan behind a capped query does not run to completion.
	// A query with write clauses still runs every part to its end, so
	// the cap never skips a write. Zero means unlimited.
	RowLimit int
	// MaxParallelism caps morsel-driven intra-query parallelism: how
	// many workers one streamable query may fan its anchor scan out to
	// (see parallel.go and docs/CONCURRENCY.md). Zero means GOMAXPROCS;
	// 1 disables intra-query parallelism.
	MaxParallelism int
	// ParallelMorselSize is the anchor-candidate ID-range chunk handed
	// to one worker per dispatch. Zero means the default of 128.
	ParallelMorselSize int
	// ParallelThreshold is the minimum anchor cardinality before the
	// planner picks the parallel path — below it, fan-out overhead
	// exceeds the win. Zero means the default of 256; negative forces
	// the parallel path regardless of cardinality (the equivalence
	// suites use this to exercise the morsel machinery on tiny graphs).
	ParallelThreshold int
}

func (o Options) withDefaults() Options {
	if o.MaxRows == 0 {
		o.MaxRows = 1_000_000
	}
	if o.MaxVarLength == 0 {
		o.MaxVarLength = 6
	}
	return o
}

// ErrTooManyRows aborts queries whose intermediate results exceed
// Options.MaxRows.
var ErrTooManyRows = errors.New("cypher: intermediate result exceeds row limit")

// WriteStats counts the side effects of write clauses.
type WriteStats struct {
	NodesCreated         int
	NodesDeleted         int
	RelationshipsCreated int
	RelationshipsDeleted int
	PropertiesSet        int
	LabelsAdded          int
	LabelsRemoved        int
}

// Changed reports whether any write happened.
func (s WriteStats) Changed() bool {
	return s != WriteStats{}
}

// Result is the outcome of executing a query: named columns, rows of
// values, and write statistics. Truncated reports that Options.RowLimit
// cut the result off before the query's natural end.
type Result struct {
	Columns   []string
	Rows      [][]graph.Value
	Stats     WriteStats
	Truncated bool
}

// Value returns the single value of a single-row single-column result,
// which is the common shape for the IYP benchmark's answers. ok is false
// when the result is not exactly 1x1.
func (r *Result) Value() (graph.Value, bool) {
	if len(r.Rows) == 1 && len(r.Rows[0]) == 1 {
		return r.Rows[0][0], true
	}
	return nil, false
}

// Execute parses and runs a query with default options.
func Execute(g *graph.Graph, src string, params map[string]any) (*Result, error) {
	return ExecuteWith(g, src, params, Options{})
}

// ExecuteContext parses and runs a query with default options under a
// cancellation context: when ctx is canceled or its deadline expires,
// execution aborts early (within one check interval, see
// cancelCheckInterval) with an error matching ErrCanceled.
func ExecuteContext(ctx context.Context, g *graph.Graph, src string, params map[string]any) (*Result, error) {
	return ExecuteWithContext(ctx, g, src, params, Options{})
}

// ExecuteWith parses and runs a query with explicit options.
func ExecuteWith(g *graph.Graph, src string, params map[string]any, opts Options) (*Result, error) {
	return ExecuteWithContext(context.Background(), g, src, params, opts)
}

// ExecuteWithContext parses and runs a query with explicit options
// under a cancellation context (see ExecuteContext).
func ExecuteWithContext(ctx context.Context, g *graph.Graph, src string, params map[string]any, opts Options) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return ExecuteQueryContext(ctx, g, q, params, opts)
}

// ExecuteQuery runs a pre-parsed query, including any UNION parts. Each
// MATCH clause is planned on the fly; use Prepare / PlanCache to plan
// once and execute many times.
func ExecuteQuery(g *graph.Graph, q *Query, params map[string]any, opts Options) (*Result, error) {
	return executeQueryPlanned(context.Background(), g, q, nil, params, opts)
}

// ExecuteQueryContext runs a pre-parsed query under a cancellation
// context (see ExecuteContext).
func ExecuteQueryContext(ctx context.Context, g *graph.Graph, q *Query, params map[string]any, opts Options) (*Result, error) {
	return executeQueryPlanned(ctx, g, q, nil, params, opts)
}

// executeQueryPlanned runs a query with an optional pre-built plan (nil
// means plan now — planning is cheap and the plan carries the operator
// pipeline the executor runs) and collects its rows into a Result.
func executeQueryPlanned(ctx context.Context, g *graph.Graph, q *Query, plan *queryPlan, params map[string]any, opts Options) (*Result, error) {
	se, err := newStreamExec(ctx, g, q, plan, params, opts)
	if err != nil {
		return nil, err
	}
	return se.run()
}

// projected carries one output row plus its source row for ORDER BY
// scoping (underlying variables remain visible when no aggregation
// collapsed them).
type projected struct {
	row    Row // projected values keyed by column name
	source Row // nil when aggregation/distinct severed the source scope
}

func rowKey(row Row, cols []string) string {
	vals := make([]graph.Value, len(cols))
	for i, c := range cols {
		vals[i] = row[c]
	}
	return graph.ValueKey(vals)
}

// aggregateRows groups the binding table by the non-aggregate
// projection items (first-seen group order) and evaluates one output
// row per group: the body of the streaming aggregate operator.
func aggregateRows(ctx *evalCtx, rows []Row, items []*ReturnItem, cols []string) ([]projected, error) {
	groups, order, err := groupRows(ctx, rows, items)
	if err != nil {
		return nil, err
	}
	var out []projected
	for _, key := range order {
		g := groups[key]
		row := make(Row, len(items))
		for i, it := range items {
			var v graph.Value
			var err error
			if containsAggregate(it.Expr) {
				v, err = evalAggExpr(ctx, it.Expr, g)
			} else {
				v, err = ctx.eval(it.Expr, g[0])
			}
			if err != nil {
				return nil, err
			}
			row[cols[i]] = v
		}
		out = append(out, projected{row: row})
	}
	return out, nil
}

// groupRows buckets the binding table by the values of the non-aggregate
// projection items, preserving first-seen group order.
func groupRows(ctx *evalCtx, rows []Row, items []*ReturnItem) (map[string][]Row, []string, error) {
	var keyExprs []Expr
	for _, it := range items {
		if !containsAggregate(it.Expr) {
			keyExprs = append(keyExprs, it.Expr)
		}
	}
	groups := make(map[string][]Row)
	var order []string
	for _, row := range rows {
		if err := ctx.checkCancel(); err != nil {
			return nil, nil, err
		}
		keyVals := make([]graph.Value, len(keyExprs))
		for i, e := range keyExprs {
			v, err := ctx.eval(e, row)
			if err != nil {
				return nil, nil, err
			}
			keyVals[i] = v
		}
		key := graph.ValueKey(keyVals)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], row)
	}
	// A pure-aggregate projection over zero rows still yields one group
	// (count(*) over nothing is 0).
	if len(rows) == 0 && len(keyExprs) == 0 {
		groups[""] = nil
		order = append(order, "")
	}
	return groups, order, nil
}

// sortKeyScope is the row ORDER BY expressions evaluate against: the
// projected values, overlaid on the source row when the source scope
// survived projection.
func sortKeyScope(pr projected) Row {
	if pr.source == nil {
		return pr.row
	}
	scope := pr.source.clone()
	for k, v := range pr.row {
		scope[k] = v
	}
	return scope
}

// sortKeysFor computes the ORDER BY key tuple of one projected row.
// An ORDER BY expression that textually matches a projected column
// (alias or identical expression) sorts on the projected value — this
// is what makes RETURN DISTINCT c.x ORDER BY c.x legal after the
// underlying scope is severed.
func sortKeysFor(ctx *evalCtx, pr projected, orderBy []*SortItem, colSet map[string]bool) ([]graph.Value, error) {
	var scope Row
	keys := make([]graph.Value, len(orderBy))
	for j, si := range orderBy {
		if name := ExprString(si.Expr); colSet[name] {
			keys[j] = pr.row[name]
			continue
		}
		if scope == nil {
			scope = sortKeyScope(pr)
		}
		v, err := ctx.eval(si.Expr, scope)
		if err != nil {
			return nil, err
		}
		keys[j] = v
	}
	return keys, nil
}

func colSetOf(cols []string) map[string]bool {
	set := make(map[string]bool, len(cols))
	for _, c := range cols {
		set[c] = true
	}
	return set
}

// sortProjectedRows stable-sorts rows in place on the ORDER BY keys.
func sortProjectedRows(ctx *evalCtx, rows []projected, orderBy []*SortItem, cols []string) error {
	colSet := colSetOf(cols)
	type keyed struct {
		pr   projected
		keys []graph.Value
	}
	ks := make([]keyed, len(rows))
	for i, pr := range rows {
		keys, err := sortKeysFor(ctx, pr, orderBy, colSet)
		if err != nil {
			return err
		}
		ks[i] = keyed{pr: pr, keys: keys}
	}
	sort.SliceStable(ks, func(a, b int) bool {
		for j, si := range orderBy {
			ka, kb := ks[a].keys[j], ks[b].keys[j]
			if graph.TotalLess(ka, kb) {
				return !si.Desc
			}
			if graph.TotalLess(kb, ka) {
				return si.Desc
			}
		}
		return false
	})
	for i := range ks {
		rows[i] = ks[i].pr
	}
	return nil
}
