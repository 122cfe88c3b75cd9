package cypher

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"chatiyp/internal/graph"
)

// This file is the query executor, a streaming (Volcano-style)
// pipeline: each logical stage (see stages.go) becomes a pull
// iterator, rows flow one at a time from the scan to the output, and a
// LIMIT — pushed below the projection when no ORDER BY/DISTINCT/
// aggregate intervenes — stops the upstream scan as soon as it is
// satisfied. Blocking operators (sort, aggregation, write barriers)
// materialize their input, bounded by Options.MaxRows; ORDER BY ...
// LIMIT avoids the full sort with a bounded top-k heap whose
// tie-breaking is bit-identical to a stable full sort.

// rowIter is the pull interface every row-level operator implements.
// Next returns the next row, or ok=false at end of stream. Returned
// rows are owned by the caller.
type rowIter interface {
	Next() (Row, bool, error)
}

// projIter is the pull interface of the projection sub-pipeline
// (project → distinct → sort/top-k → skip), whose elements carry the
// source row alongside the projected values for ORDER BY scoping.
type projIter interface {
	Next() (projected, bool, error)
}

// Cumulative counters of the streaming executor, mirrored into the
// metrics registry by core.Pipeline (process-global, like the runtime
// counters they feed).
var (
	streamRowsStreamed   atomic.Int64
	streamLimitEarlyExit atomic.Int64
)

// StreamStats reports the cumulative streaming-executor counters:
// rowsStreamed is the total number of result rows produced by
// streaming executions; limitEarlyExit counts executions a LIMIT (or
// Options.RowLimit) terminated before the source was exhausted.
func StreamStats() (rowsStreamed, limitEarlyExit int64) {
	return streamRowsStreamed.Load(), streamLimitEarlyExit.Load()
}

// streamExec is the shared state of one streaming execution.
type streamExec struct {
	ctx      *evalCtx
	limitHit bool       // some limit reached its cap and stopped the pull
	stats    WriteStats // side effects of the write barriers run so far

	// Morsel-driven parallel state (see parallel.go). par is the
	// current part's statically-eligible segment; runs tracks the live
	// morsel runs so every exit path can stop their workers; pre is set
	// only on per-worker clones and pins the anchor to one morsel.
	par  *parallelSegment
	runs []*parallelRun
	pre  *morselPreset
}

// newStreamExec is the prologue every execution shares: it applies the
// option defaults, normalizes the parameters, plans the query when no
// plan is given, and surfaces the plan's error — so a query the
// planner rejects fails before any stage runs and writes nothing.
func newStreamExec(ctx context.Context, g *graph.Graph, q *Query, plan *queryPlan, params map[string]any, opts Options) (*streamExec, error) {
	opts = opts.withDefaults()
	normParams, err := normalizeParams(params)
	if err != nil {
		return nil, err
	}
	if plan == nil {
		plan = planQuery(g, q, opts)
	}
	if plan.err != nil {
		return nil, plan.err
	}
	// A read-only query pins one immutable snapshot for the whole
	// execution (all UNION parts included): every hop and scan is
	// lock-free against one consistent epoch, and concurrent writers
	// are never blocked. A write query reads the live graph, so a
	// clause observes the writes of the barriers before it.
	var r graph.Reader = g
	if !plan.writes {
		r = g.View()
	}
	return &streamExec{ctx: &evalCtx{g: g, r: r, params: normParams, opts: opts, plan: plan, ctx: ctx}}, nil
}

// normalizeParams converts caller-supplied parameter values to the
// engine's value model.
func normalizeParams(params map[string]any) (map[string]graph.Value, error) {
	out := make(map[string]graph.Value, len(params))
	for k, v := range params {
		nv, err := graph.NormalizeValue(v)
		if err != nil {
			return nil, fmt.Errorf("cypher: parameter $%s: %w", k, err)
		}
		out[k] = nv
	}
	return out, nil
}

// run executes the plan to completion: every part's operator pipeline
// is pulled in sequence, with UNION dedup applied to the parts the plan
// marked (see queryPlan.lastDedup) and Options.RowLimit enforced across
// the whole output. Past the cap a read-only query stops pulling; a
// write query drains every remaining part, discarding its rows, so the
// cap never skips a write.
func (se *streamExec) run() (*Result, error) {
	defer se.stopRuns()
	plan, opts := se.ctx.plan, se.ctx.opts
	cols := plan.parts[0].cols
	res := &Result{Columns: cols, Rows: [][]graph.Value{}}
	var seen map[string]bool
	if plan.lastDedup >= 0 {
		seen = map[string]bool{}
	}
parts:
	for pi, sp := range plan.parts {
		if err := se.ctx.pollCancel(); err != nil {
			return nil, err
		}
		se.par = sp.par
		it, err := se.build(sp.root)
		if err != nil {
			return nil, err
		}
		dedup := pi <= plan.lastDedup
		for {
			if err := se.ctx.checkCancel(); err != nil {
				return nil, err
			}
			row, ok, err := it.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				continue parts
			}
			if cols == nil || res.Truncated {
				continue // no RETURN, or draining a write query past the cap
			}
			vals := make([]graph.Value, len(cols))
			for j, c := range cols {
				vals[j] = row[c]
			}
			if dedup {
				key := graph.ValueKey(vals)
				if seen[key] {
					continue
				}
				seen[key] = true
			}
			if opts.RowLimit > 0 && len(res.Rows) == opts.RowLimit {
				// A row beyond the cap exists, so the flag is exact.
				res.Truncated = true
				if !plan.writes {
					se.limitHit = true
					break parts
				}
				continue
			}
			res.Rows = append(res.Rows, vals)
		}
	}
	res.Stats = se.stats
	streamRowsStreamed.Add(int64(len(res.Rows)))
	if se.limitHit {
		streamLimitEarlyExit.Add(1)
	}
	return res, nil
}

// build assembles the iterator chain for a stage pipeline, rooted at s.
func (se *streamExec) build(s *stage) (rowIter, error) {
	// Sink-side parallel substitution: when s tops an eligible segment
	// and the run engages, the whole prefix below runs on the worker
	// pool instead (see parallel.go). On fallback, build serially.
	if se.par != nil && s == se.par.top && se.par.mode == parRows {
		if it, ok := se.tryParallel(); ok {
			return it, nil
		}
	}
	switch s.kind {
	case stageSeed:
		return &seedIter{}, nil
	case stageMatch:
		in, err := se.build(s.input)
		if err != nil {
			return nil, err
		}
		mi := &matchIter{se: se, m: s.match, hints: s.hints, input: in,
			newVars: patternVars(s.match.Patterns)}
		if se.pre != nil && se.pre.match == s {
			mi.pre = se.pre
		}
		return mi, nil
	case stageUnwind:
		in, err := se.build(s.input)
		if err != nil {
			return nil, err
		}
		return &unwindIter{se: se, u: s.unwind, input: in}, nil
	case stageFilter:
		in, err := se.build(s.input)
		if err != nil {
			return nil, err
		}
		return &filterIter{se: se, cond: s.cond, input: in}, nil
	case stageWrite:
		in, err := se.build(s.input)
		if err != nil {
			return nil, err
		}
		return &writeIter{se: se, cl: s.write, input: in}, nil
	case stageLimit:
		if s.pushed {
			in, err := se.build(s.input)
			if err != nil {
				return nil, err
			}
			budget, err := se.evalSkipLimitBudget(s.skipE, s.limitE)
			if err != nil {
				return nil, err
			}
			return &rowLimitIter{se: se, input: in, remaining: budget}, nil
		}
		fallthrough
	default:
		pi, err := se.buildProj(s)
		if err != nil {
			return nil, err
		}
		return &stripIter{in: pi}, nil
	}
}

// buildProj assembles the projection sub-pipeline rooted at s.
func (se *streamExec) buildProj(s *stage) (projIter, error) {
	if se.par != nil && s == se.par.top && se.par.mode != parRows {
		if it, ok := se.tryParallelProj(); ok {
			return it, nil
		}
	}
	switch s.kind {
	case stageProject:
		in, err := se.build(s.input)
		if err != nil {
			return nil, err
		}
		return &projectIter{se: se, items: s.items, cols: s.cols, hasAgg: s.hasAgg, input: in}, nil
	case stageDistinct:
		in, err := se.buildProj(s.input)
		if err != nil {
			return nil, err
		}
		return &distinctIter{in: in, cols: s.cols, seen: map[string]bool{}}, nil
	case stageSort:
		in, err := se.buildProj(s.input)
		if err != nil {
			return nil, err
		}
		return &sortIter{se: se, in: in, orderBy: s.orderBy, cols: s.cols}, nil
	case stageTopK:
		in, err := se.buildProj(s.input)
		if err != nil {
			return nil, err
		}
		k, err := se.evalSkipLimitBudget(s.skipE, s.limitE)
		if err != nil {
			return nil, err
		}
		return &topKIter{se: se, in: in, orderBy: s.orderBy, cols: s.cols, k: k}, nil
	case stageSkip:
		in, err := se.buildProj(s.input)
		if err != nil {
			return nil, err
		}
		n, err := se.evalSkip(s.skipE)
		if err != nil {
			return nil, err
		}
		return &skipIter{in: in, n: n}, nil
	case stageLimit:
		in, err := se.buildProj(s.input)
		if err != nil {
			return nil, err
		}
		n, err := se.evalLimit(s.limitE)
		if err != nil {
			return nil, err
		}
		return &limitIter{se: se, in: in, remaining: n}, nil
	}
	return nil, evalErrorf("internal: stage kind %d in projection pipeline", s.kind)
}

// evalSkip evaluates a SKIP expression (nil means 0), which must be a
// non-negative integer.
func (se *streamExec) evalSkip(e Expr) (int, error) {
	if e == nil {
		return 0, nil
	}
	v, err := se.ctx.eval(e, Row{})
	if err != nil {
		return 0, err
	}
	s, ok := graph.AsInt(v)
	if !ok || s < 0 {
		return 0, evalErrorf("SKIP must be a non-negative integer")
	}
	return int(s), nil
}

// evalLimit evaluates a LIMIT expression, which must be a
// non-negative integer.
func (se *streamExec) evalLimit(e Expr) (int, error) {
	v, err := se.ctx.eval(e, Row{})
	if err != nil {
		return 0, err
	}
	l, ok := graph.AsInt(v)
	if !ok || l < 0 {
		return 0, evalErrorf("LIMIT must be a non-negative integer")
	}
	return int(l), nil
}

// evalSkipLimitBudget returns SKIP+LIMIT: the number of rows a pushed
// limit (or a top-k heap) must retain so the post-projection SKIP
// still has rows to drop.
func (se *streamExec) evalSkipLimitBudget(skipE, limitE Expr) (int, error) {
	s, err := se.evalSkip(skipE)
	if err != nil {
		return 0, err
	}
	l, err := se.evalLimit(limitE)
	if err != nil {
		return 0, err
	}
	return s + l, nil
}

// seedIter yields the single empty row every pipeline starts from.
type seedIter struct{ done bool }

func (it *seedIter) Next() (Row, bool, error) {
	if it.done {
		return nil, false, nil
	}
	it.done = true
	return Row{}, true, nil
}

// matchIter enumerates pattern matches per input row. Single-pattern
// MATCH (the common shape) streams anchor-candidate by
// anchor-candidate, so a downstream LIMIT stops the scan early;
// multi-pattern MATCH buffers the full cross product of one input row
// at a time (relationship uniqueness spans the patterns).
type matchIter struct {
	se      *streamExec
	m       *MatchClause
	hints   matchHints
	input   rowIter
	newVars []string

	// pre pins the anchor choice and candidate set to one morsel's
	// subrange — set only on parallel-worker chains (see parallel.go).
	pre *morselPreset

	// state for the input row currently being expanded
	haveIn     bool
	inRow      Row
	matcher    *matcher
	matchedAny bool

	// single-pattern candidate streaming
	anchor  int
	cands   candSet
	candIdx int
	state   *matchState

	buf    []Row
	bufPos int
}

func (it *matchIter) Next() (Row, bool, error) {
	for {
		if it.bufPos < len(it.buf) {
			r := it.buf[it.bufPos]
			it.bufPos++
			return r, true, nil
		}
		it.buf = it.buf[:0]
		it.bufPos = 0
		if !it.haveIn {
			row, ok, err := it.input.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			it.inRow = row
			it.haveIn = true
			it.matchedAny = false
			it.matcher = &matcher{ctx: it.se.ctx, usedRels: map[int64]bool{}, hints: it.hints}
			if len(it.m.Patterns) > 1 {
				if err := it.fillMulti(); err != nil {
					return nil, false, err
				}
				it.haveIn = false
				continue
			}
			pat := it.m.Patterns[0]
			if len(pat.Nodes) == 0 {
				return nil, false, evalErrorf("empty pattern")
			}
			if it.pre != nil {
				it.anchor = it.pre.anchor
				it.cands = it.pre.cands
			} else {
				it.anchor = it.matcher.pickAnchor(pat, row)
				cands, err := it.matcher.anchorCandidates(pat.Nodes[it.anchor], row)
				if err != nil {
					return nil, false, err
				}
				it.cands = cands
			}
			it.candIdx = 0
			it.state = &matchState{
				pat:      pat,
				nodes:    make([]*graph.Node, len(pat.Nodes)),
				relBinds: make([]relBinding, len(pat.Rels)),
			}
		}
		if it.candIdx >= it.cands.len() {
			it.haveIn = false
			if !it.matchedAny && it.m.Optional {
				return it.nullRow(), true, nil
			}
			continue
		}
		cand := it.cands.at(it.se.ctx.r, it.candIdx)
		it.candIdx++
		if cand == nil {
			continue // id vanished between planning and resolution
		}
		_, err := it.matcher.matchCandidate(it.state, it.anchor, cand, it.inRow, func(r Row) bool {
			it.buf = append(it.buf, r)
			return true
		})
		if err != nil {
			return nil, false, err
		}
		if err := it.filterWhere(); err != nil {
			return nil, false, err
		}
		if len(it.buf) > 0 {
			it.matchedAny = true
		}
	}
}

// fillMulti buffers every match of a multi-pattern MATCH for the
// current input row (relationship uniqueness spans the patterns),
// bounded by MaxRows.
func (it *matchIter) fillMulti() error {
	matches := []Row{it.inRow}
	for _, pat := range it.m.Patterns {
		var next []Row
		for _, mr := range matches {
			err := it.matcher.match(pat, mr, func(r Row) bool {
				next = append(next, r)
				return len(next) <= it.se.ctx.opts.MaxRows
			})
			if err != nil {
				return err
			}
		}
		if len(next) > it.se.ctx.opts.MaxRows {
			return ErrTooManyRows
		}
		matches = next
		if len(matches) == 0 {
			break
		}
	}
	it.buf = matches
	if err := it.filterWhere(); err != nil {
		return err
	}
	if len(it.buf) == 0 && it.m.Optional {
		it.buf = append(it.buf, it.nullRow())
	}
	return nil
}

// filterWhere applies the MATCH's WHERE predicate to the buffered
// matches, before the optional-null fallback.
func (it *matchIter) filterWhere() error {
	if it.m.Where == nil || len(it.buf) == 0 {
		return nil
	}
	kept := it.buf[:0]
	for _, mr := range it.buf {
		v, err := it.se.ctx.eval(it.m.Where, mr)
		if err != nil {
			return err
		}
		if b, ok := v.(bool); ok && b {
			kept = append(kept, mr)
		}
	}
	it.buf = kept
	return nil
}

// nullRow is the OPTIONAL MATCH no-match fallback: the input row with
// every new pattern variable bound to null.
func (it *matchIter) nullRow() Row {
	nr := it.inRow.clone()
	for _, v := range it.newVars {
		if _, bound := nr[v]; !bound {
			nr[v] = nil
		}
	}
	return nr
}

// unwindIter expands list values to one row per element.
type unwindIter struct {
	se    *streamExec
	u     *UnwindClause
	input rowIter

	cur     Row
	list    []graph.Value
	listPos int
	inList  bool
}

func (it *unwindIter) Next() (Row, bool, error) {
	for {
		if it.inList {
			if it.listPos < len(it.list) {
				nr := it.cur.clone()
				nr[it.u.Alias] = it.list[it.listPos]
				it.listPos++
				return nr, true, nil
			}
			it.inList = false
		}
		row, ok, err := it.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		v, err := it.se.ctx.eval(it.u.Expr, row)
		if err != nil {
			return nil, false, err
		}
		switch list := v.(type) {
		case nil:
			continue
		case []graph.Value:
			it.cur = row
			it.list = list
			it.listPos = 0
			it.inList = true
		default:
			nr := row.clone()
			nr[it.u.Alias] = v
			return nr, true, nil
		}
	}
}

// filterIter keeps rows whose predicate is strictly true (three-valued
// logic: null and false both drop the row).
type filterIter struct {
	se    *streamExec
	cond  Expr
	input rowIter
}

func (it *filterIter) Next() (Row, bool, error) {
	for {
		row, ok, err := it.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		v, err := it.se.ctx.eval(it.cond, row)
		if err != nil {
			return nil, false, err
		}
		if b, ok := v.(bool); ok && b {
			return row, true, nil
		}
	}
}

// rowLimitIter is a pushed-down LIMIT: it caps source rows below the
// projection, stopping the upstream scan.
type rowLimitIter struct {
	se        *streamExec
	input     rowIter
	remaining int
	probed    bool
}

func (it *rowLimitIter) Next() (Row, bool, error) {
	if it.remaining <= 0 {
		// Probe one source row so limit_early_exit only counts caps
		// that genuinely cut a live stream off.
		if !it.probed {
			it.probed = true
			if _, ok, err := it.input.Next(); err != nil {
				return nil, false, err
			} else if ok {
				it.se.limitHit = true
			}
		}
		return nil, false, nil
	}
	row, ok, err := it.input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	it.remaining--
	return row, true, nil
}

// projectIter evaluates the projection items per row; with aggregates
// it blocks, draining its input into groups first.
type projectIter struct {
	se     *streamExec
	items  []*ReturnItem
	cols   []string
	hasAgg bool
	input  rowIter

	grouped []projected
	pos     int
	built   bool
}

func (it *projectIter) Next() (projected, bool, error) {
	if it.hasAgg {
		if !it.built {
			rows, err := drainRows(it.se.ctx, it.input, it.se.ctx.opts.MaxRows)
			if err != nil {
				return projected{}, false, err
			}
			it.grouped, err = aggregateRows(it.se.ctx, rows, it.items, it.cols)
			if err != nil {
				return projected{}, false, err
			}
			it.built = true
		}
		if it.pos >= len(it.grouped) {
			return projected{}, false, nil
		}
		pr := it.grouped[it.pos]
		it.pos++
		return pr, true, nil
	}
	src, ok, err := it.input.Next()
	if err != nil || !ok {
		return projected{}, false, err
	}
	row := make(Row, len(it.items))
	for i, item := range it.items {
		v, err := it.se.ctx.eval(item.Expr, src)
		if err != nil {
			return projected{}, false, err
		}
		row[it.cols[i]] = v
	}
	return projected{row: row, source: src}, true, nil
}

// drainRows pulls an iterator to exhaustion, erroring past maxRows —
// the memory bound on blocking operators. ctx polls for cancellation
// per drained row, so a blocking aggregate over an unbounded scan
// still aborts promptly.
func drainRows(ctx *evalCtx, it rowIter, maxRows int) ([]Row, error) {
	var rows []Row
	for {
		if err := ctx.checkCancel(); err != nil {
			return nil, err
		}
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rows, nil
		}
		rows = append(rows, row)
		if len(rows) > maxRows {
			return nil, ErrTooManyRows
		}
	}
}

// writeIter is the write barrier: on the first pull it drains its
// input, applies the clause to every row in order against the live
// graph, and only then yields the (possibly rebound) rows.
type writeIter struct {
	se    *streamExec
	cl    Clause
	input rowIter

	rows  []Row
	pos   int
	built bool
}

func (it *writeIter) Next() (Row, bool, error) {
	if !it.built {
		rows, err := drainRows(it.se.ctx, it.input, it.se.ctx.opts.MaxRows)
		if err != nil {
			return nil, false, err
		}
		w := &writer{ctx: it.se.ctx, rows: rows, stats: &it.se.stats}
		if err := w.apply(it.cl); err != nil {
			return nil, false, err
		}
		if len(w.rows) > it.se.ctx.opts.MaxRows {
			return nil, false, ErrTooManyRows
		}
		it.rows, it.built = w.rows, true
	}
	if it.pos >= len(it.rows) {
		return nil, false, nil
	}
	row := it.rows[it.pos]
	it.pos++
	return row, true, nil
}

// distinctIter keeps the first occurrence of each projected row and
// severs the source scope: ORDER BY after DISTINCT sees only the
// projected columns.
type distinctIter struct {
	in   projIter
	cols []string
	seen map[string]bool
}

func (it *distinctIter) Next() (projected, bool, error) {
	for {
		pr, ok, err := it.in.Next()
		if err != nil || !ok {
			return projected{}, false, err
		}
		key := rowKey(pr.row, it.cols)
		if it.seen[key] {
			continue
		}
		it.seen[key] = true
		pr.source = nil
		return pr, true, nil
	}
}

// sortIter is the blocking full sort (no LIMIT to bound it).
type sortIter struct {
	se      *streamExec
	in      projIter
	orderBy []*SortItem
	cols    []string

	rows  []projected
	pos   int
	built bool
}

func (it *sortIter) Next() (projected, bool, error) {
	if !it.built {
		for {
			if err := it.se.ctx.checkCancel(); err != nil {
				return projected{}, false, err
			}
			pr, ok, err := it.in.Next()
			if err != nil {
				return projected{}, false, err
			}
			if !ok {
				break
			}
			it.rows = append(it.rows, pr)
			if len(it.rows) > it.se.ctx.opts.MaxRows {
				return projected{}, false, ErrTooManyRows
			}
		}
		if err := sortProjectedRows(it.se.ctx, it.rows, it.orderBy, it.cols); err != nil {
			return projected{}, false, err
		}
		it.built = true
	}
	if it.pos >= len(it.rows) {
		return projected{}, false, nil
	}
	pr := it.rows[it.pos]
	it.pos++
	return pr, true, nil
}

// keyedRow is one row plus its ORDER BY key tuple and arrival rank;
// (keys, seq, seq2) is the total order the stable sort produces. The
// serial executor ranks by a single arrival counter (seq2 stays 0);
// parallel workers rank by (morsel index, position within the morsel),
// which is the same global arrival order the serial scan would see.
type keyedRow struct {
	pr   projected
	keys []graph.Value
	seq  int
	seq2 int
}

// sortsAfter reports whether a comes strictly after b in the stable
// ORDER BY order (ties broken by arrival rank).
func sortsAfter(orderBy []*SortItem, a, b keyedRow) bool {
	for j, si := range orderBy {
		ka, kb := a.keys[j], b.keys[j]
		if graph.TotalLess(ka, kb) {
			return si.Desc
		}
		if graph.TotalLess(kb, ka) {
			return !si.Desc
		}
	}
	if a.seq != b.seq {
		return a.seq > b.seq
	}
	return a.seq2 > b.seq2
}

// topKIter retains the first k rows of the stable ORDER BY order using
// a bounded max-heap: the root is the worst retained row, evicted
// whenever a better one arrives. Output order — and tie-breaking — is
// bit-identical to fully sorting and slicing.
type topKIter struct {
	se      *streamExec
	in      projIter
	orderBy []*SortItem
	cols    []string
	k       int

	kept  []keyedRow
	pos   int
	built bool
}

func (it *topKIter) Next() (projected, bool, error) {
	if !it.built {
		colSet := colSetOf(it.cols)
		h := &topKHeap{orderBy: it.orderBy}
		seq := 0
		for {
			if err := it.se.ctx.checkCancel(); err != nil {
				return projected{}, false, err
			}
			pr, ok, err := it.in.Next()
			if err != nil {
				return projected{}, false, err
			}
			if !ok {
				break
			}
			keys, err := sortKeysFor(it.se.ctx, pr, it.orderBy, colSet)
			if err != nil {
				return projected{}, false, err
			}
			if it.k == 0 {
				continue
			}
			kr := keyedRow{pr: pr, keys: keys, seq: seq}
			seq++
			if len(h.items) < it.k {
				heap.Push(h, kr)
				continue
			}
			// Evict the current worst when the new row sorts before it.
			if sortsAfter(it.orderBy, h.items[0], kr) {
				h.items[0] = kr
				heap.Fix(h, 0)
			}
		}
		it.kept = h.items
		sort.Slice(it.kept, func(i, j int) bool {
			return sortsAfter(it.orderBy, it.kept[j], it.kept[i])
		})
		it.built = true
	}
	if it.pos >= len(it.kept) {
		return projected{}, false, nil
	}
	pr := it.kept[it.pos].pr
	it.pos++
	return pr, true, nil
}

// topKHeap is a max-heap on the stable sort order: the root sorts
// after every other retained row.
type topKHeap struct {
	items   []keyedRow
	orderBy []*SortItem
}

func (h *topKHeap) Len() int { return len(h.items) }
func (h *topKHeap) Less(i, j int) bool {
	return sortsAfter(h.orderBy, h.items[i], h.items[j])
}
func (h *topKHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *topKHeap) Push(x any)    { h.items = append(h.items, x.(keyedRow)) }
func (h *topKHeap) Pop() any {
	last := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return last
}

// skipIter drops the first n rows.
type skipIter struct {
	in projIter
	n  int
}

func (it *skipIter) Next() (projected, bool, error) {
	for it.n > 0 {
		_, ok, err := it.in.Next()
		if err != nil || !ok {
			return projected{}, false, err
		}
		it.n--
	}
	return it.in.Next()
}

// limitIter caps the stream at n rows (the not-pushed form, above
// DISTINCT or aggregation).
type limitIter struct {
	se        *streamExec
	in        projIter
	remaining int
	probed    bool
}

func (it *limitIter) Next() (projected, bool, error) {
	if it.remaining <= 0 {
		if !it.probed {
			it.probed = true
			if _, ok, err := it.in.Next(); err != nil {
				return projected{}, false, err
			} else if ok {
				it.se.limitHit = true
			}
		}
		return projected{}, false, nil
	}
	pr, ok, err := it.in.Next()
	if err != nil || !ok {
		return projected{}, false, err
	}
	it.remaining--
	return pr, true, nil
}

// stripIter adapts the projection sub-pipeline back to plain rows.
type stripIter struct{ in projIter }

func (it *stripIter) Next() (Row, bool, error) {
	pr, ok, err := it.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	return pr.row, true, nil
}
