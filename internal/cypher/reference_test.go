package cypher

import (
	"context"
	"fmt"
	"sort"

	"chatiyp/internal/graph"
)

// This file is the reference executor the equivalence tests hold the
// production pipeline to: the naive, materializing strategy. It runs
// a query clause by clause, each clause turning the whole binding
// table into the next one, against the live graph (so reads observe
// the query's own writes). Write clauses run through the same writer
// the pipeline's write barriers use. Nothing here streams, pushes a
// LIMIT down, keeps a top-k heap or fans out to workers, which is what
// makes it a useful second opinion.

// execFunc is the signature ExecuteWithContext and executeReference
// share, so a test table can run one query on either.
type execFunc func(ctx context.Context, g *graph.Graph, src string, params map[string]any, opts Options) (*Result, error)

// executeReference parses and runs src on the reference executor,
// including any UNION parts: each part runs to completion, the rows
// concatenate (deduplicated after each plain UNION), and
// Options.RowLimit truncates the final result.
func executeReference(ctx context.Context, g *graph.Graph, src string, params map[string]any, opts Options) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	normParams, err := normalizeParams(params)
	if err != nil {
		return nil, err
	}
	res, err := executeSingle(ctx, g, q, nil, normParams, opts)
	if err != nil {
		return nil, err
	}
	for _, part := range q.Unions {
		next, err := executeSingle(ctx, g, part.Query, nil, normParams, opts)
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
	case *CreateClause, *MergeClause, *SetClause, *RemoveClause, *DeleteClause:
		w := &writer{ctx: ex.ctx, rows: ex.rows, stats: &ex.stats}
		if err := w.apply(cl); err != nil {
			return err
		}
		ex.rows = w.rows
		ex.addScope(writeVars(cl)...)
		return nil
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
