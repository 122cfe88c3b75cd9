package cypher

import (
	"chatiyp/internal/graph"
)

// This file implements the static half of query planning: extracting
// index-usable equality predicates from MATCH ... WHERE clauses so the
// executor can replace a label scan with an O(1) property-index lookup.
//
// The matcher has always used inline property maps — MATCH (a:AS {asn:
// $n}) — to anchor on an index. The planner extends the same access path
// to the far more common WHERE spelling, MATCH (a:AS) WHERE a.asn = $n,
// by hoisting row-independent equality conjuncts into anchor hints. The
// WHERE filter itself still runs afterwards, so a hint can only narrow
// the candidate set, never change the result.

// indexHint is one WHERE-derived equality predicate the anchor scan can
// serve from a property index: variable Var carries label Label, and
// Var.Prop = Value where Value does not depend on any bound variable.
type indexHint struct {
	Label string
	Prop  string
	Value Expr
}

// matchHints maps node-pattern variables of one MATCH clause to their
// usable index hints.
type matchHints map[string][]indexHint

// queryPlan is the graph-dependent planning state of a prepared query:
// per-MATCH index hints plus the logical operator tree of each query
// part, stamped with the graph version they were derived against. A
// plan whose stamp no longer matches the graph is stale and must be
// rebuilt (indexes may have appeared, and the write that bumped the
// version may be exactly what the plan keyed on).
type queryPlan struct {
	graph          *graph.Graph
	version        uint64
	disableIndexes bool
	hints          map[*MatchClause]matchHints

	// parts holds one operator pipeline per query part (the main query
	// followed by its UNION parts). lastDedup is the index of the last
	// part introduced by a plain (deduplicating) UNION, or -1: rows
	// from parts up to and including it dedupe against everything seen
	// so far, which is what deduplicating the concatenation after each
	// plain UNION converges to.
	parts     []*stagePlan
	lastDedup int
	// writes reports that some part has a write clause: the execution
	// then reads the live graph instead of a pinned View, so later
	// clauses observe earlier writes, and never runs a parallel
	// segment.
	writes bool
	// err is the planning failure (a clause after RETURN, nothing to
	// project, mismatched UNION columns). A query with a plan error
	// fails before any stage runs.
	err error
}

// planQuery derives the full plan for a query (including UNION parts)
// against the reader the query will execute on: a pinned View for a
// read-only query, the live graph for one with write clauses (which
// reads its own writes through the locked API anyway). A cold columnar
// graph therefore stays cold through planning.
func planQuery(g *graph.Graph, q *Query, opts Options) *queryPlan {
	if q.ReadOnly() {
		view := g.View()
		return planQueryOn(g, view, view.Version(), q, opts)
	}
	// Version before index set: a plan may be stamped older than what
	// it saw (one replan), never newer.
	return planQueryOn(g, g, g.Version(), q, opts)
}

// planQueryOn is planQuery with the index set read from r, which must
// be g or a View of it, at (or after) the given graph version.
func planQueryOn(g *graph.Graph, r graph.Reader, version uint64, q *Query, opts Options) *queryPlan {
	p := &queryPlan{
		graph:          g,
		version:        version,
		disableIndexes: opts.DisableIndexes,
		hints:          make(map[*MatchClause]matchHints),
	}
	p.planInto(r, q, opts)

	p.lastDedup = -1
	p.writes = !q.ReadOnly()
	for i, part := range append([]*Query{q}, unionQueries(q)...) {
		sp, err := buildStages(part, p.hints, opts)
		if err != nil {
			p.parts, p.err = nil, err
			return p
		}
		if p.writes {
			sp.par = nil // morsel workers share an immutable View
		}
		p.parts = append(p.parts, sp)
		if i > 0 && !q.Unions[i-1].All {
			p.lastDedup = i
		}
	}
	p.err = checkUnionColumns(p.parts)
	return p
}

// checkUnionColumns requires every UNION part to return the columns of
// the first, by count and name.
func checkUnionColumns(parts []*stagePlan) error {
	cols := parts[0].cols
	for _, sp := range parts[1:] {
		if len(sp.cols) != len(cols) {
			return evalErrorf("UNION requires the same number of columns (%d vs %d)",
				len(cols), len(sp.cols))
		}
		for i := range sp.cols {
			if sp.cols[i] != cols[i] {
				return evalErrorf("UNION requires matching column names (%q vs %q)",
					cols[i], sp.cols[i])
			}
		}
	}
	return nil
}

// unionQueries lists the UNION part queries in order.
func unionQueries(q *Query) []*Query {
	out := make([]*Query, len(q.Unions))
	for i, u := range q.Unions {
		out[i] = u.Query
	}
	return out
}

func (p *queryPlan) planInto(r graph.Reader, q *Query, opts Options) {
	for _, cl := range q.Clauses {
		if m, ok := cl.(*MatchClause); ok {
			if h := planMatch(r, m, opts); len(h) > 0 {
				p.hints[m] = h
			}
		}
	}
	for _, part := range q.Unions {
		p.planInto(r, part.Query, opts)
	}
}

// hintsFor returns the planned hints for a MATCH clause, or nil.
func (p *queryPlan) hintsFor(m *MatchClause) matchHints {
	if p == nil {
		return nil
	}
	return p.hints[m]
}

// planMatch extracts the index-usable equality predicates of one MATCH
// clause. A conjunct qualifies when it has the shape `v.prop = expr` (or
// mirrored), v is a pattern node variable carrying a label with an index
// on prop, and expr is row-independent (literals and parameters only),
// so its value is the same for every candidate row. The index set is
// read from r, the reader the MATCH runs against.
func planMatch(r graph.Reader, m *MatchClause, opts Options) matchHints {
	if opts.DisableIndexes || m.Where == nil {
		return nil
	}
	// Collect the labels of each pattern node variable.
	varLabels := map[string][]string{}
	for _, pat := range m.Patterns {
		for _, np := range pat.Nodes {
			if np.Var != "" && len(np.Labels) > 0 {
				varLabels[np.Var] = append(varLabels[np.Var], np.Labels...)
			}
		}
	}
	if len(varLabels) == 0 {
		return nil
	}
	var hints matchHints
	for _, conj := range conjuncts(m.Where, nil) {
		v, prop, value, ok := equalityPredicate(conj)
		if !ok {
			continue
		}
		for _, label := range varLabels[v] {
			if !r.HasIndex(label, prop) {
				continue
			}
			if hints == nil {
				hints = matchHints{}
			}
			hints[v] = append(hints[v], indexHint{Label: label, Prop: prop, Value: value})
			break
		}
	}
	return hints
}

// conjuncts splits an expression on its top-level ANDs.
func conjuncts(e Expr, out []Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		out = conjuncts(b.Left, out)
		return conjuncts(b.Right, out)
	}
	return append(out, e)
}

// equalityPredicate recognizes `v.prop = expr` / `expr = v.prop` with a
// row-independent right-hand side.
func equalityPredicate(e Expr) (varName, prop string, value Expr, ok bool) {
	b, isBin := e.(*Binary)
	if !isBin || b.Op != "=" {
		return "", "", nil, false
	}
	if v, p, ok := varProp(b.Left); ok && rowIndependent(b.Right) {
		return v, p, b.Right, true
	}
	if v, p, ok := varProp(b.Right); ok && rowIndependent(b.Left) {
		return v, p, b.Left, true
	}
	return "", "", nil, false
}

// varProp matches a direct variable property access: v.prop.
func varProp(e Expr) (string, string, bool) {
	pa, ok := e.(*PropertyAccess)
	if !ok {
		return "", "", false
	}
	v, ok := pa.Subject.(*Variable)
	if !ok {
		return "", "", false
	}
	return v.Name, pa.Prop, true
}

// rowIndependent reports whether evaluating e cannot observe any bound
// variable, so its value is identical across all rows of a MATCH. The
// check is conservative: anything that mentions a Variable (including
// comprehension-local ones) or embeds a pattern is rejected.
func rowIndependent(e Expr) bool {
	switch x := e.(type) {
	case nil:
		return true
	case *Literal, *Parameter:
		return true
	case *PropertyAccess:
		return rowIndependent(x.Subject)
	case *ListLiteral:
		for _, el := range x.Elems {
			if !rowIndependent(el) {
				return false
			}
		}
		return true
	case *MapLiteral:
		for _, el := range x.Elems {
			if !rowIndependent(el) {
				return false
			}
		}
		return true
	case *IndexExpr:
		return rowIndependent(x.Subject) && rowIndependent(x.Index) && rowIndependent(x.To)
	case *Unary:
		return rowIndependent(x.Expr)
	case *Binary:
		return rowIndependent(x.Left) && rowIndependent(x.Right)
	case *IsNull:
		return rowIndependent(x.Expr)
	case *FuncCall:
		for _, a := range x.Args {
			if !rowIndependent(a) {
				return false
			}
		}
		return true
	case *CaseExpr:
		if !rowIndependent(x.Subject) || !rowIndependent(x.Else) {
			return false
		}
		for i := range x.Whens {
			if !rowIndependent(x.Whens[i]) || !rowIndependent(x.Thens[i]) {
				return false
			}
		}
		return true
	default:
		// Variables, comprehensions, quantifiers, pattern predicates.
		return false
	}
}
