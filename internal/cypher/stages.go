package cypher

import (
	"fmt"
	"slices"
	"sort"
)

// This file builds the logical operator tree ("stages") of a query
// part: the Volcano-style pipeline the executor pulls rows through.
// Each stage is one operator with a single input; the chain runs seed
// → match/unwind/write → (pushed limit) → project/aggregate → distinct
// → sort/top-k → skip → limit. Planning is static: star expansion,
// column naming, pushdown decisions and scope are all derived from the
// AST and the variable scope, never from data.
//
// A write clause is a pipeline breaker (stageWrite): it drains its
// input, applies the clause to every row in order, and only then
// yields. Nothing upstream sees its writes; everything downstream sees
// all of them.

// stageKind enumerates the logical operators.
type stageKind int

const (
	stageSeed     stageKind = iota // yields one empty row
	stageMatch                     // pattern match over the graph, incl. WHERE
	stageUnwind                    // list expansion
	stageFilter                    // WITH ... WHERE predicate
	stageProject                   // projection (plain or aggregating)
	stageDistinct                  // first-occurrence dedup of projected rows
	stageSort                      // full stable sort (blocking)
	stageTopK                      // bounded heap for ORDER BY ... LIMIT
	stageSkip                      // drop the first SKIP rows
	stageLimit                     // cap rows; `pushed` means below projection
	stageWrite                     // CREATE/MERGE/SET/REMOVE/DELETE barrier
)

// stage is one logical operator node. Exactly one of the payload
// groups is meaningful, per kind.
type stage struct {
	kind  stageKind
	input *stage

	// stageMatch
	match *MatchClause
	hints matchHints

	// stageUnwind
	unwind *UnwindClause

	// stageFilter
	cond Expr

	// stageWrite
	write Clause

	// stageProject
	items  []*ReturnItem // star-expanded
	cols   []string
	hasAgg bool
	final  bool // RETURN (vs WITH)

	// stageSort / stageTopK
	orderBy []*SortItem

	// stageTopK / stageSkip / stageLimit — row-independent expressions,
	// evaluated once per execution.
	skipE  Expr
	limitE Expr
	pushed bool // stageLimit hoisted below the projection
}

// stagePlan is the operator pipeline of one single-part query, rooted
// at the output end (pull from root, data flows from the seed).
type stagePlan struct {
	root *stage
	cols []string // RETURN column names; nil for a part with no RETURN
	// par is the statically-eligible parallel prefix of the chain, or
	// nil; whether an execution actually engages it is a per-run
	// cardinality decision (see parallel.go).
	par *parallelSegment
}

// buildStages derives the operator pipeline for one query part. hints
// is the per-MATCH index analysis planInto already performed for this
// plan. A part that cannot run is a plan-time error, so it fails
// before any of its stages has written anything.
func buildStages(q *Query, hints map[*MatchClause]matchHints, opts Options) (*stagePlan, error) {
	root := &stage{kind: stageSeed}
	var scope []string
	addScope := func(names ...string) {
		for _, n := range names {
			if n != "" && !slices.Contains(scope, n) {
				scope = append(scope, n)
			}
		}
	}
	for i, cl := range q.Clauses {
		switch x := cl.(type) {
		case *MatchClause:
			root = &stage{kind: stageMatch, input: root, match: x, hints: hints[x]}
			addScope(patternVars(x.Patterns)...)
		case *UnwindClause:
			root = &stage{kind: stageUnwind, input: root, unwind: x}
			addScope(x.Alias)
		case *WithClause:
			proj, cols, err := buildProjection(root, scope, x.Items, x.Distinct, x.OrderBy, x.Skip, x.Limit, false)
			if err != nil {
				return nil, err
			}
			root = proj
			scope = cols
			if x.Where != nil {
				root = &stage{kind: stageFilter, input: root, cond: x.Where}
			}
		case *ReturnClause:
			if i != len(q.Clauses)-1 {
				return nil, evalErrorf("clause after RETURN")
			}
			proj, cols, err := buildProjection(root, scope, x.Items, x.Distinct, x.OrderBy, x.Skip, x.Limit, true)
			if err != nil {
				return nil, err
			}
			sp := &stagePlan{root: proj, cols: cols}
			sp.par = analyzeParallel(sp)
			return sp, nil
		case *CreateClause, *MergeClause, *SetClause, *RemoveClause, *DeleteClause:
			root = &stage{kind: stageWrite, input: root, write: cl}
			addScope(writeVars(cl)...)
		default:
			return nil, evalErrorf("unsupported clause %T", cl)
		}
	}
	// No RETURN: the part runs for its writes and yields no rows.
	return &stagePlan{root: root}, nil
}

// writeVars lists the variables a write clause brings into scope:
// CREATE and MERGE bind their pattern variables; SET, REMOVE and
// DELETE bind nothing.
func writeVars(cl Clause) []string {
	switch x := cl.(type) {
	case *CreateClause:
		return patternVars(x.Patterns)
	case *MergeClause:
		return patternVars([]*Pattern{x.Pattern})
	}
	return nil
}

// buildProjection assembles the projection chain of one WITH/RETURN:
// (pushed limit) → project → distinct → sort|top-k → skip → limit. It
// fails when the items expand to nothing.
func buildProjection(input *stage, scope []string, items []*ReturnItem, distinct bool,
	orderBy []*SortItem, skipE, limitE Expr, final bool) (*stage, []string, error) {
	expanded, cols, err := expandItems(items, scope)
	if err != nil {
		return nil, nil, err
	}
	hasAgg := false
	for _, it := range expanded {
		if containsAggregate(it.Expr) {
			hasAgg = true
			break
		}
	}
	// LIMIT pushdown: with no ORDER BY, DISTINCT or aggregation the
	// projection is row-for-row, so the cap can run below it and stop
	// the upstream scan after SKIP+LIMIT source rows.
	pushedLimit := limitE != nil && len(orderBy) == 0 && !distinct && !hasAgg
	if pushedLimit {
		input = &stage{kind: stageLimit, input: input, skipE: skipE, limitE: limitE, pushed: true}
	}
	root := &stage{kind: stageProject, input: input, items: expanded, cols: cols, hasAgg: hasAgg, final: final}
	if distinct {
		root = &stage{kind: stageDistinct, input: root, cols: cols}
	}
	switch {
	case len(orderBy) > 0 && limitE != nil:
		// Bounded top-k replaces full-sort-then-slice; keeps SKIP+LIMIT
		// rows with ties resolved exactly as the stable sort would.
		root = &stage{kind: stageTopK, input: root, orderBy: orderBy, cols: cols, skipE: skipE, limitE: limitE}
		if skipE != nil {
			root = &stage{kind: stageSkip, input: root, skipE: skipE}
		}
	case len(orderBy) > 0:
		root = &stage{kind: stageSort, input: root, orderBy: orderBy, cols: cols}
		if skipE != nil {
			root = &stage{kind: stageSkip, input: root, skipE: skipE}
		}
	default:
		if skipE != nil {
			root = &stage{kind: stageSkip, input: root, skipE: skipE}
		}
		// A pushed limit already capped the source at SKIP+LIMIT rows,
		// so after SKIP no post-projection limit is needed. DISTINCT or
		// aggregation blocks the pushdown, and the cap must then run
		// here, above them.
		if limitE != nil && !pushedLimit {
			root = &stage{kind: stageLimit, input: root, limitE: limitE}
		}
	}
	return root, cols, nil
}

// expandItems performs RETURN * expansion against the static scope and
// derives the output column names.
func expandItems(items []*ReturnItem, scope []string) ([]*ReturnItem, []string, error) {
	var expanded []*ReturnItem
	for _, it := range items {
		if !it.Star {
			expanded = append(expanded, it)
			continue
		}
		scoped := append([]string(nil), scope...)
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
	return expanded, cols, nil
}
