package cypher

import (
	"fmt"
	"strings"

	"chatiyp/internal/graph"
)

// Explain parses a query and describes the execution plan: the
// Volcano-style operator pipeline the executor pulls rows through —
// including which node pattern anchors each MATCH, through which access
// path (bound variable, property index, label scan, full scan), where a
// LIMIT was pushed below the projection or an ORDER BY ... LIMIT became
// a bounded top-k sort, and where a write clause runs as a barrier.
// Explain does not execute the query; a query that fails planning
// returns the planning error. The cyphershell exposes it as
// `EXPLAIN <query>`.
func Explain(g *graph.Graph, src string, opts Options) (string, error) {
	q, err := Parse(src)
	if err != nil {
		return "", err
	}
	return describeAll(g, q, opts)
}

// describeAll renders the execution plan of a parsed query and its
// UNION parts — the shared body of Explain and PreparedQuery.Describe.
// Nothing is executed, so write queries too are planned and described
// against one pinned View: EXPLAIN never touches the locked graph API.
func describeAll(g *graph.Graph, q *Query, opts Options) (string, error) {
	opts = opts.withDefaults()
	view := g.View()
	plan := planQueryOn(g, view, view.Version(), q, opts)
	if plan.err != nil {
		return "", plan.err
	}
	var b strings.Builder
	b.WriteString("streaming operator pipeline\n")
	renderStages(&b, view, plan.parts[0], opts)
	for i, part := range q.Unions {
		kind := "UNION"
		if part.All {
			kind = "UNION ALL"
		}
		dedup := " (deduplicating)"
		if i+1 > plan.lastDedup {
			dedup = ""
		}
		fmt.Fprintf(&b, "%s (part %d)%s\n", kind, i+2, dedup)
		renderStages(&b, view, plan.parts[i+1], opts)
	}
	return b.String(), nil
}

// renderStages walks one part's operator chain from the seed to the
// output and renders each operator with its planning decisions.
func renderStages(b *strings.Builder, view *graph.View, sp *stagePlan, opts Options) {
	// Collect the chain in execution order (seed first).
	var chain []*stage
	for s := sp.root; s != nil; s = s.input {
		chain = append(chain, s)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	ctx := &evalCtx{r: view, opts: opts}
	bound := map[string]bool{}
	for _, s := range chain {
		switch s.kind {
		case stageSeed:
			// implicit single-row source; not rendered
		case stageMatch:
			x := s.match
			kw := "MATCH"
			if x.Optional {
				kw = "OPTIONAL MATCH"
			}
			m := &matcher{ctx: ctx, usedRels: map[int64]bool{}, hints: s.hints}
			for _, pat := range x.Patterns {
				fmt.Fprintf(b, "%s %s\n", kw, PatternString(pat))
				anchor := pickAnchorWithBound(m, pat, bound)
				np := pat.Nodes[anchor]
				fmt.Fprintf(b, "  anchor: node %d %s via %s\n",
					anchor, nodePatternLabel(np), accessPath(view, np, bound, s.hints, opts))
				if hops := len(pat.Rels); hops > 0 {
					fmt.Fprintf(b, "  expand: %d relationship hop(s)\n", hops)
				}
				for _, v := range patternVars([]*Pattern{pat}) {
					bound[v] = true
				}
			}
			if x.Where != nil {
				fmt.Fprintf(b, "  filter: %s\n", ExprString(x.Where))
			}
			if sp.par != nil && sp.par.match == s {
				renderParallelDecision(b, ctx, s, opts)
			}
		case stageUnwind:
			fmt.Fprintf(b, "UNWIND %s AS %s\n", ExprString(s.unwind.Expr), s.unwind.Alias)
			bound[s.unwind.Alias] = true
		case stageFilter:
			fmt.Fprintf(b, "  filter: %s\n", ExprString(s.cond))
		case stageProject:
			kw := "WITH"
			if s.final {
				kw = "RETURN"
			}
			shape := "project"
			if s.hasAgg {
				shape = "aggregate"
			}
			fmt.Fprintf(b, "%s (%s): %s\n", kw, shape, strings.Join(s.cols, ", "))
			if !s.final {
				bound = map[string]bool{}
				for _, c := range s.cols {
					bound[c] = true
				}
			}
		case stageDistinct:
			fmt.Fprintf(b, "  distinct\n")
		case stageSort:
			fmt.Fprintf(b, "  sort: %d key(s)\n", len(s.orderBy))
		case stageTopK:
			fmt.Fprintf(b, "  top-k sort: %d key(s), keep %s row(s)\n",
				len(s.orderBy), skipLimitString(s.skipE, s.limitE))
		case stageSkip:
			fmt.Fprintf(b, "  skip: %s\n", ExprString(s.skipE))
		case stageWrite:
			switch x := s.write.(type) {
			case *CreateClause:
				fmt.Fprintf(b, "CREATE %d pattern(s)\n", len(x.Patterns))
			case *MergeClause:
				fmt.Fprintf(b, "MERGE %s\n", PatternString(x.Pattern))
			case *SetClause:
				fmt.Fprintf(b, "SET %d item(s)\n", len(x.Items))
			case *RemoveClause:
				fmt.Fprintf(b, "REMOVE %d item(s)\n", len(x.Items))
			case *DeleteClause:
				kw := "DELETE"
				if x.Detach {
					kw = "DETACH DELETE"
				}
				fmt.Fprintf(b, "%s %d expression(s)\n", kw, len(x.Exprs))
			}
			for _, v := range writeVars(s.write) {
				bound[v] = true
			}
		case stageLimit:
			if s.pushed {
				fmt.Fprintf(b, "LIMIT %s (pushed below projection: scan stops after %s row(s))\n",
					ExprString(s.limitE), skipLimitString(s.skipE, s.limitE))
			} else {
				fmt.Fprintf(b, "  limit: %s\n", ExprString(s.limitE))
			}
		}
	}
}

// renderParallelDecision prints the planner's parallel-vs-serial
// choice for a morsel-eligible anchor scan: the anchor cardinality
// estimate from the label/property index stats against the threshold.
// Nothing is printed when parallelism is unavailable (one core, or
// MaxParallelism 1) — the pipeline is then unconditionally serial.
func renderParallelDecision(b *strings.Builder, ctx *evalCtx, s *stage, opts Options) {
	workers := resolveParallelism(opts)
	force := opts.ParallelThreshold < 0
	if workers < 2 && !force {
		return
	}
	threshold := opts.ParallelThreshold
	if threshold == 0 {
		threshold = defaultParallelThreshold
	}
	msize := opts.ParallelMorselSize
	if msize <= 0 {
		msize = defaultParallelMorselSize
	}
	pat := s.match.Patterns[0]
	m := &matcher{ctx: ctx, usedRels: map[int64]bool{}, hints: s.hints}
	anchor := m.pickAnchor(pat, Row{})
	est := estimateAnchorRows(m, pat.Nodes[anchor])
	switch {
	case force:
		fmt.Fprintf(b, "  parallel scan: up to %d worker(s), morsel size %d (forced)\n",
			workers, msize)
	case est >= threshold:
		fmt.Fprintf(b, "  parallel scan: up to %d worker(s), morsel size %d (est. %d anchor rows >= threshold %d)\n",
			workers, msize, est, threshold)
	default:
		fmt.Fprintf(b, "  serial scan: est. %d anchor rows < parallel threshold %d\n",
			est, threshold)
	}
}

// estimateAnchorRows is the planner's static anchor-cardinality
// estimate: the size of the access path anchorCandidates would choose,
// from the label/property index stats. Access paths that cannot be
// resolved statically (e.g. a parameterized index probe) estimate as a
// single-row point lookup.
func estimateAnchorRows(m *matcher, np *NodePattern) int {
	cands, err := m.anchorCandidates(np, Row{})
	if err != nil {
		return 1
	}
	return cands.len()
}

// skipLimitString renders the SKIP+LIMIT row budget of a pushed limit
// or top-k stage.
func skipLimitString(skipE, limitE Expr) string {
	if skipE == nil {
		return ExprString(limitE)
	}
	return ExprString(skipE) + "+" + ExprString(limitE)
}

// pickAnchorWithBound mirrors the matcher's anchor choice against a
// statically-known bound-variable set.
func pickAnchorWithBound(m *matcher, pat *Pattern, bound map[string]bool) int {
	row := Row{}
	for v := range bound {
		row[v] = &graph.Node{} // placeholder: presence is what matters
	}
	return m.pickAnchor(pat, row)
}

func nodePatternLabel(np *NodePattern) string {
	s := "(" + np.Var
	for _, l := range np.Labels {
		s += ":" + l
	}
	return s + ")"
}

// accessPath names the cheapest available scan for the anchor.
func accessPath(view *graph.View, np *NodePattern, bound map[string]bool, hints matchHints, opts Options) string {
	if np.Var != "" && bound[np.Var] {
		return "bound variable `" + np.Var + "`"
	}
	if !opts.DisableIndexes {
		if label, prop, ok := indexedInlineProp(view, np); ok {
			return fmt.Sprintf("property index (%s, %s)", label, prop)
		}
		if np.Var != "" {
			if hs := hints[np.Var]; len(hs) > 0 {
				h := hs[0]
				return fmt.Sprintf("property index (%s, %s) via WHERE %s.%s = %s",
					h.Label, h.Prop, np.Var, h.Prop, ExprString(h.Value))
			}
		}
	}
	if len(np.Labels) > 0 {
		best := np.Labels[0]
		bestN := len(view.NodesByLabel(best))
		for _, l := range np.Labels[1:] {
			if n := len(view.NodesByLabel(l)); n < bestN {
				best, bestN = l, n
			}
		}
		return fmt.Sprintf("label scan :%s (%d nodes)", best, bestN)
	}
	return fmt.Sprintf("all-nodes scan (%d nodes)", view.NodeCount())
}
