package cypher

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"chatiyp/internal/graph"
)

// Options tunes query execution.
type Options struct {
	// MaxRows caps the intermediate binding-table size; exceeding it
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
	// returning an error, and the streaming executor stops pulling —
	// an unbounded scan behind a capped query does not run to
	// completion. Zero means unlimited.
	RowLimit int
	// DisableStreaming forces the materializing executor even for
	// read-only queries. The materializing path is the reference
	// implementation the streaming/materialized equivalence tests
	// compare against; the flag is also an operational escape hatch.
	DisableStreaming bool
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
// pipeline the streaming executor runs). Read-only queries stream
// through the operator pipeline with early termination; queries with
// write clauses (and Options.DisableStreaming) run on the
// materializing executor.
func executeQueryPlanned(ctx context.Context, g *graph.Graph, q *Query, plan *queryPlan, params map[string]any, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	normParams := make(map[string]graph.Value, len(params))
	for k, v := range params {
		nv, err := graph.NormalizeValue(v)
		if err != nil {
			return nil, fmt.Errorf("cypher: parameter $%s: %w", k, err)
		}
		normParams[k] = nv
	}
	if plan == nil {
		plan = planQuery(g, q, opts)
	}
	if plan.streamable && !opts.DisableStreaming {
		return executeStream(ctx, g, plan, normParams, opts)
	}
	res, err := executeSingle(ctx, g, q, plan, normParams, opts)
	if err != nil {
		return nil, err
	}
	for _, part := range q.Unions {
		next, err := executeSingle(ctx, g, part.Query, plan, normParams, opts)
		if err != nil {
			return nil, err
		}
		if len(next.Columns) != len(res.Columns) {
			return nil, evalErrorf("UNION requires the same number of columns (%d vs %d)",
				len(res.Columns), len(next.Columns))
		}
		for i := range next.Columns {
			if next.Columns[i] != res.Columns[i] {
				return nil, evalErrorf("UNION requires matching column names (%q vs %q)",
					res.Columns[i], next.Columns[i])
			}
		}
		res.Rows = append(res.Rows, next.Rows...)
		res.Stats = addStats(res.Stats, next.Stats)
		if !part.All {
			res.Rows = dedupeRows(res.Rows)
		}
	}
	if opts.RowLimit > 0 && len(res.Rows) > opts.RowLimit {
		res.Rows = res.Rows[:opts.RowLimit]
		res.Truncated = true
	}
	return res, nil
}

func addStats(a, b WriteStats) WriteStats {
	a.NodesCreated += b.NodesCreated
	a.NodesDeleted += b.NodesDeleted
	a.RelationshipsCreated += b.RelationshipsCreated
	a.RelationshipsDeleted += b.RelationshipsDeleted
	a.PropertiesSet += b.PropertiesSet
	a.LabelsAdded += b.LabelsAdded
	a.LabelsRemoved += b.LabelsRemoved
	return a
}

func dedupeRows(rows [][]graph.Value) [][]graph.Value {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, row := range rows {
		key := graph.ValueKey(append([]graph.Value(nil), row...))
		if !seen[key] {
			seen[key] = true
			out = append(out, row)
		}
	}
	return out
}

func executeSingle(ctx context.Context, g *graph.Graph, q *Query, plan *queryPlan, params map[string]graph.Value, opts Options) (*Result, error) {
	ex := &executor{
		// r = g: the materializing executor runs write clauses, whose
		// later reads (MERGE, MATCH after CREATE) must observe the
		// query's own writes through the live locked graph.
		ctx:  &evalCtx{g: g, r: g, params: params, opts: opts, plan: plan, ctx: ctx},
		rows: []Row{{}},
	}
	for _, cl := range q.Clauses {
		if err := ex.ctx.pollCancel(); err != nil {
			return nil, err
		}
		if err := ex.execClause(cl); err != nil {
			return nil, err
		}
		if len(ex.rows) > ex.ctx.opts.MaxRows {
			return nil, ErrTooManyRows
		}
	}
	res := &Result{Columns: ex.columns, Rows: ex.output, Stats: ex.stats}
	if res.Rows == nil {
		res.Rows = [][]graph.Value{}
	}
	return res, nil
}

// executor threads the binding table through the clause pipeline.
type executor struct {
	ctx     *evalCtx
	rows    []Row
	scope   []string // variables currently in scope, in introduction order
	columns []string
	output  [][]graph.Value
	stats   WriteStats
	ended   bool
}

func (ex *executor) addScope(names ...string) {
	for _, n := range names {
		if n == "" {
			continue
		}
		found := false
		for _, s := range ex.scope {
			if s == n {
				found = true
				break
			}
		}
		if !found {
			ex.scope = append(ex.scope, n)
		}
	}
}

func (ex *executor) execClause(cl Clause) error {
	if ex.ended {
		return evalErrorf("clause after RETURN")
	}
	switch x := cl.(type) {
	case *MatchClause:
		return ex.execMatch(x)
	case *UnwindClause:
		return ex.execUnwind(x)
	case *WithClause:
		return ex.execWith(x)
	case *ReturnClause:
		return ex.execReturn(x)
	case *CreateClause:
		return ex.execCreate(x)
	case *MergeClause:
		return ex.execMerge(x)
	case *SetClause:
		return ex.execSet(x.Items)
	case *RemoveClause:
		return ex.execRemove(x)
	case *DeleteClause:
		return ex.execDelete(x)
	}
	return evalErrorf("unsupported clause %T", cl)
}

func (ex *executor) execMatch(m *MatchClause) error {
	var out []Row
	newVars := patternVars(m.Patterns)
	// Use the prepared plan's hints when present; otherwise plan this
	// MATCH now. Hints are row-independent by construction, so one
	// derivation serves every row.
	var hints matchHints
	if ex.ctx.plan != nil {
		hints = ex.ctx.plan.hintsFor(m)
	} else {
		hints = planMatch(ex.ctx.r, m, ex.ctx.opts)
	}
	for _, row := range ex.rows {
		if err := ex.ctx.checkCancel(); err != nil {
			return err
		}
		matcher := &matcher{ctx: ex.ctx, usedRels: map[int64]bool{}, hints: hints}
		matches := []Row{row}
		for _, pat := range m.Patterns {
			var next []Row
			for _, mr := range matches {
				err := matcher.match(pat, mr, func(r Row) bool {
					next = append(next, r)
					return len(next) <= ex.ctx.opts.MaxRows
				})
				if err != nil {
					return err
				}
			}
			matches = next
			if len(matches) == 0 {
				break
			}
		}
		// WHERE filters within the match (before optional-null fallback).
		if m.Where != nil {
			filtered := matches[:0]
			for _, mr := range matches {
				v, err := ex.ctx.eval(m.Where, mr)
				if err != nil {
					return err
				}
				if b, ok := v.(bool); ok && b {
					filtered = append(filtered, mr)
				}
			}
			matches = filtered
		}
		if len(matches) == 0 && m.Optional {
			nullRow := row.clone()
			for _, v := range newVars {
				if _, bound := nullRow[v]; !bound {
					nullRow[v] = nil
				}
			}
			out = append(out, nullRow)
			continue
		}
		out = append(out, matches...)
	}
	ex.rows = out
	ex.addScope(newVars...)
	return nil
}

func (ex *executor) execUnwind(u *UnwindClause) error {
	var out []Row
	for _, row := range ex.rows {
		if err := ex.ctx.checkCancel(); err != nil {
			return err
		}
		v, err := ex.ctx.eval(u.Expr, row)
		if err != nil {
			return err
		}
		switch list := v.(type) {
		case nil:
			continue
		case []graph.Value:
			for _, el := range list {
				if err := ex.ctx.checkCancel(); err != nil {
					return err
				}
				nr := row.clone()
				nr[u.Alias] = el
				out = append(out, nr)
			}
		default:
			nr := row.clone()
			nr[u.Alias] = v
			out = append(out, nr)
		}
	}
	ex.rows = out
	ex.addScope(u.Alias)
	return nil
}

func (ex *executor) execWith(w *WithClause) error {
	cols, rows, err := ex.project(w.Items, w.Distinct, w.OrderBy, w.Skip, w.Limit)
	if err != nil {
		return err
	}
	ex.rows = rows
	ex.scope = cols
	if w.Where != nil {
		filtered := ex.rows[:0]
		for _, row := range ex.rows {
			v, err := ex.ctx.eval(w.Where, row)
			if err != nil {
				return err
			}
			if b, ok := v.(bool); ok && b {
				filtered = append(filtered, row)
			}
		}
		ex.rows = filtered
	}
	return nil
}

func (ex *executor) execReturn(r *ReturnClause) error {
	cols, rows, err := ex.project(r.Items, r.Distinct, r.OrderBy, r.Skip, r.Limit)
	if err != nil {
		return err
	}
	ex.columns = cols
	ex.output = make([][]graph.Value, len(rows))
	for i, row := range rows {
		vals := make([]graph.Value, len(cols))
		for j, c := range cols {
			vals[j] = row[c]
		}
		ex.output[i] = vals
	}
	ex.ended = true
	return nil
}

// projected carries one output row plus its source row for ORDER BY
// scoping (underlying variables remain visible when no aggregation
// collapsed them).
type projected struct {
	row    Row // projected values keyed by column name
	source Row // nil when aggregation/distinct severed the source scope
}

// project evaluates projection items over the current binding table,
// handling star expansion, grouping/aggregation, DISTINCT, ORDER BY,
// SKIP and LIMIT. It returns the new column names and rows.
func (ex *executor) project(items []*ReturnItem, distinct bool, orderBy []*SortItem, skipE, limitE Expr) ([]string, []Row, error) {
	// Expand RETURN * into the variables in scope.
	var expanded []*ReturnItem
	for _, it := range items {
		if !it.Star {
			expanded = append(expanded, it)
			continue
		}
		scoped := append([]string(nil), ex.scope...)
		sort.Strings(scoped)
		for _, name := range scoped {
			expanded = append(expanded, &ReturnItem{Expr: &Variable{Name: name}, Alias: name})
		}
	}
	if len(expanded) == 0 {
		return nil, nil, evalErrorf("nothing to project")
	}
	cols := make([]string, len(expanded))
	seen := map[string]bool{}
	for i, it := range expanded {
		name := it.Name()
		if seen[name] {
			name = fmt.Sprintf("%s_%d", name, i)
		}
		seen[name] = true
		cols[i] = name
	}

	hasAgg := false
	for _, it := range expanded {
		if containsAggregate(it.Expr) {
			hasAgg = true
			break
		}
	}

	var projRows []projected
	if hasAgg {
		grouped, err := aggregateRows(ex.ctx, ex.rows, expanded, cols)
		if err != nil {
			return nil, nil, err
		}
		projRows = grouped
	} else {
		for _, src := range ex.rows {
			if err := ex.ctx.checkCancel(); err != nil {
				return nil, nil, err
			}
			row := make(Row, len(expanded))
			for i, it := range expanded {
				v, err := ex.ctx.eval(it.Expr, src)
				if err != nil {
					return nil, nil, err
				}
				row[cols[i]] = v
			}
			projRows = append(projRows, projected{row: row, source: src})
		}
	}

	if distinct {
		dedup := make(map[string]bool, len(projRows))
		var kept []projected
		for _, pr := range projRows {
			key := rowKey(pr.row, cols)
			if !dedup[key] {
				dedup[key] = true
				pr.source = nil // distinct severs the underlying scope
				kept = append(kept, pr)
			}
		}
		projRows = kept
	}

	if len(orderBy) > 0 {
		if err := sortProjectedRows(ex.ctx, projRows, orderBy, cols); err != nil {
			return nil, nil, err
		}
	}

	start, end, err := ex.skipLimit(skipE, limitE, len(projRows))
	if err != nil {
		return nil, nil, err
	}
	projRows = projRows[start:end]

	out := make([]Row, len(projRows))
	for i, pr := range projRows {
		out[i] = pr.row
	}
	return cols, out, nil
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
// row per group. Shared by the materializing executor and the
// streaming aggregate operator.
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

func (ex *executor) skipLimit(skipE, limitE Expr, n int) (start, end int, err error) {
	start, end = 0, n
	if skipE != nil {
		v, err := ex.ctx.eval(skipE, Row{})
		if err != nil {
			return 0, 0, err
		}
		s, ok := graph.AsInt(v)
		if !ok || s < 0 {
			return 0, 0, evalErrorf("SKIP must be a non-negative integer")
		}
		if int(s) < n {
			start = int(s)
		} else {
			start = n
		}
	}
	if limitE != nil {
		v, err := ex.ctx.eval(limitE, Row{})
		if err != nil {
			return 0, 0, err
		}
		l, ok := graph.AsInt(v)
		if !ok || l < 0 {
			return 0, 0, evalErrorf("LIMIT must be a non-negative integer")
		}
		if start+int(l) < end {
			end = start + int(l)
		}
	}
	return start, end, nil
}
