package cypher

import (
	"maps"
	"slices"

	"chatiyp/internal/graph"
)

// matcher enumerates pattern matches against the graph. A single matcher
// instance spans one MATCH clause so relationship-uniqueness (openCypher
// relationship isomorphism) holds across all its patterns.
type matcher struct {
	ctx      *evalCtx
	usedRels map[int64]bool
	// hints are the WHERE-derived equality predicates of the enclosing
	// MATCH clause (see plan.go); they let anchorCandidates serve the
	// anchor from a property index instead of a label scan. nil is
	// valid and means no hints.
	hints matchHints
}

// match enumerates every extension of row that satisfies pat, invoking
// emit for each complete match. emit returning false stops enumeration
// early. The row passed to emit is a fresh copy.
func (m *matcher) match(pat *Pattern, row Row, emit func(Row) bool) error {
	if len(pat.Nodes) == 0 {
		return evalErrorf("empty pattern")
	}
	anchor := m.pickAnchor(pat, row)
	candidates, err := m.anchorCandidates(pat.Nodes[anchor], row)
	if err != nil {
		return err
	}
	state := &matchState{
		pat:      pat,
		nodes:    make([]*graph.Node, len(pat.Nodes)),
		relBinds: make([]relBinding, len(pat.Rels)),
	}
	for i := 0; i < candidates.len(); i++ {
		cand := candidates.at(m.ctx.r, i)
		if cand == nil {
			continue
		}
		cont, err := m.matchCandidate(state, anchor, cand, row, emit)
		if err != nil {
			return err
		}
		if !cont {
			break
		}
	}
	return nil
}

// matchCandidate enumerates every complete match of state.pat that
// anchors on cand at the anchor position, extending row. It is the
// per-candidate slice of match(), split out so the streaming executor
// can pull candidate-by-candidate and stop a scan early. Returns false
// when emit requested a stop.
func (m *matcher) matchCandidate(state *matchState, anchor int, cand *graph.Node, row Row, emit func(Row) bool) (bool, error) {
	// One step per anchor candidate: a canceled context stops a label
	// or full scan within cancelCheckInterval candidates.
	if err := m.ctx.checkCancel(); err != nil {
		return false, err
	}
	pat := state.pat
	work := row.clone()
	ok, undo, err := m.bindNode(pat.Nodes[anchor], cand, work)
	if err != nil {
		return false, err
	}
	if !ok {
		return true, nil
	}
	state.nodes[anchor] = cand
	cont, err := m.expandFrom(state, anchor, work, func(final Row) bool {
		if pat.PathVar != "" {
			final = final.clone()
			final[pat.PathVar] = state.buildPath()
		}
		return emit(final.clone())
	})
	if err != nil {
		return false, err
	}
	undo(work)
	return cont, nil
}

// matchState records the concrete entities bound at each pattern
// position so named paths can be reconstructed in pattern order.
type matchState struct {
	pat      *Pattern
	nodes    []*graph.Node
	relBinds []relBinding
}

// relBinding is the concrete traversal of one relationship position:
// a single rel, or a variable-length chain with its interior nodes.
type relBinding struct {
	single  *graph.Relationship
	chain   []*graph.Relationship
	interim []*graph.Node // nodes strictly between the endpoints, pattern order
	varLen  bool
}

func (s *matchState) buildPath() graph.Path {
	var p graph.Path
	for i, n := range s.nodes {
		p.Nodes = append(p.Nodes, n)
		if i < len(s.relBinds) {
			rb := s.relBinds[i]
			if rb.varLen {
				p.Rels = append(p.Rels, rb.chain...)
				if len(rb.interim) > 0 {
					p.Nodes = append(p.Nodes, rb.interim...)
				}
			} else if rb.single != nil {
				p.Rels = append(p.Rels, rb.single)
			}
		}
	}
	return p
}

// expandFrom matches the remaining pattern positions: rightward from the
// anchor to the end, then leftward back to the start. Returns false when
// the emit callback requested a stop.
func (m *matcher) expandFrom(state *matchState, anchor int, row Row, emit func(Row) bool) (bool, error) {
	return m.expandRight(state, anchor, anchor, row, emit)
}

func (m *matcher) expandRight(state *matchState, anchor, pos int, row Row, emit func(Row) bool) (bool, error) {
	if pos == len(state.pat.Nodes)-1 {
		return m.expandLeft(state, anchor, row, emit)
	}
	rel := state.pat.Rels[pos]
	return m.traverse(state, row, rel, pos, state.nodes[pos], state.pat.Nodes[pos+1], true,
		func(row Row, other *graph.Node) (bool, error) {
			state.nodes[pos+1] = other
			return m.expandRight(state, anchor, pos+1, row, emit)
		})
}

func (m *matcher) expandLeft(state *matchState, pos int, row Row, emit func(Row) bool) (bool, error) {
	if pos == 0 {
		return emit(row), nil
	}
	rel := state.pat.Rels[pos-1]
	return m.traverse(state, row, rel, pos-1, state.nodes[pos], state.pat.Nodes[pos-1], false,
		func(row Row, other *graph.Node) (bool, error) {
			state.nodes[pos-1] = other
			return m.expandLeft(state, pos-1, row, emit)
		})
}

// traverse enumerates (relationship, other-node) continuations from
// current across one pattern relationship. forward reports whether we
// walk the pattern left-to-right at this position; the pattern arrow is
// interpreted relative to that.
func (m *matcher) traverse(state *matchState, row Row, rp *RelPattern, relPos int,
	current *graph.Node, targetNP *NodePattern, forward bool,
	cont func(Row, *graph.Node) (bool, error)) (bool, error) {
	if rp.VarLength != nil {
		return m.traverseVarLength(state, row, rp, relPos, current, targetNP, forward, cont)
	}
	dir := traversalDirection(rp.Direction, forward)
	// Expansion iterates the reader's pre-bucketed adjacency in place:
	// one callback per candidate relationship, no per-hop slices, maps
	// or sorting (see graph.View.IncidentDo).
	var stepErr error
	completed := m.ctx.r.IncidentDo(current.ID, dir, rp.Types, func(r *graph.Relationship) bool {
		if m.usedRels[r.ID] {
			return true
		}
		ok, err := m.relPropsMatch(rp, r, row)
		if err != nil {
			stepErr = err
			return false
		}
		if !ok {
			return true
		}
		var otherID int64
		if r.StartID == current.ID {
			otherID = r.EndID // covers self-loops too
		} else {
			otherID = r.StartID
		}
		other := m.ctx.r.Node(otherID)
		if other == nil {
			return true
		}
		okNode, undoNode, err := m.bindNode(targetNP, other, row)
		if err != nil {
			stepErr = err
			return false
		}
		if !okNode {
			return true
		}
		okRel, undoRel, err := m.bindRel(rp, r, row)
		if err != nil {
			stepErr = err
			return false
		}
		if !okRel {
			undoNode(row)
			return true
		}
		m.usedRels[r.ID] = true
		state.relBinds[relPos] = relBinding{single: r}
		keep, err := cont(row, other)
		delete(m.usedRels, r.ID)
		undoRel(row)
		undoNode(row)
		if err != nil {
			stepErr = err
			return false
		}
		return keep
	})
	if stepErr != nil {
		return false, stepErr
	}
	return completed, nil
}

// traverseVarLength enumerates simple relationship chains of length
// [min, max] (max capped by Options.MaxVarLength when unbounded).
func (m *matcher) traverseVarLength(state *matchState, row Row, rp *RelPattern, relPos int,
	current *graph.Node, targetNP *NodePattern, forward bool,
	cont func(Row, *graph.Node) (bool, error)) (bool, error) {
	vl := rp.VarLength
	maxLen := vl.Max
	if maxLen < 0 {
		maxLen = m.ctx.opts.MaxVarLength
	}
	dir := traversalDirection(rp.Direction, forward)

	var chain []*graph.Relationship
	var interim []*graph.Node

	finish := func(endNode *graph.Node) (bool, error) {
		okNode, undoNode, err := m.bindNode(targetNP, endNode, row)
		if err != nil {
			return false, err
		}
		if !okNode {
			return true, nil
		}
		var undoRelVar func(Row)
		if rp.Var != "" {
			if prev, bound := row[rp.Var]; bound {
				_ = prev
				undoNode(row)
				return true, nil // var-length rel var cannot be pre-bound
			}
			vals := make([]graph.Value, len(chain))
			for i, r := range chain {
				vals[i] = r
			}
			row[rp.Var] = vals
			undoRelVar = func(r Row) { delete(r, rp.Var) }
		}
		// Record the binding, preserving pattern order for paths. The
		// last traversal node is the far endpoint itself (owned by the
		// node-pattern position), so only the strictly-interior nodes
		// are kept.
		rb := relBinding{varLen: true}
		rb.chain = append([]*graph.Relationship(nil), chain...)
		if len(interim) > 0 {
			rb.interim = append([]*graph.Node(nil), interim[:len(interim)-1]...)
		}
		if !forward {
			reverseRels(rb.chain)
			reverseNodes(rb.interim)
		}
		state.relBinds[relPos] = rb
		keep, err := cont(row, endNode)
		if undoRelVar != nil {
			undoRelVar(row)
		}
		undoNode(row)
		return keep, err
	}

	var dfs func(node *graph.Node, depth int) (bool, error)
	dfs = func(node *graph.Node, depth int) (bool, error) {
		// Var-length expansion can fan out exponentially between anchor
		// candidates, so it polls for cancellation on its own.
		if err := m.ctx.checkCancel(); err != nil {
			return false, err
		}
		if depth >= vl.Min {
			keep, err := finish(node)
			if err != nil || !keep {
				return keep, err
			}
		}
		if depth == maxLen {
			return true, nil
		}
		var stepErr error
		completed := m.ctx.r.IncidentDo(node.ID, dir, rp.Types, func(r *graph.Relationship) bool {
			if m.usedRels[r.ID] {
				return true
			}
			ok, err := m.relPropsMatch(rp, r, row)
			if err != nil {
				stepErr = err
				return false
			}
			if !ok {
				return true
			}
			var otherID int64
			if r.StartID == node.ID {
				otherID = r.EndID
			} else {
				otherID = r.StartID
			}
			other := m.ctx.r.Node(otherID)
			if other == nil {
				return true
			}
			m.usedRels[r.ID] = true
			chain = append(chain, r)
			// The far endpoint is interior unless this hop completes a
			// candidate path; interior tracking is append-only per depth.
			interim = append(interim, other)
			keep, err := dfs(other, depth+1)
			interim = interim[:len(interim)-1]
			chain = chain[:len(chain)-1]
			delete(m.usedRels, r.ID)
			if err != nil {
				stepErr = err
				return false
			}
			return keep
		})
		if stepErr != nil {
			return false, stepErr
		}
		// A stop without an error can only come from keep==false: the
		// emit chain asked to end enumeration.
		return completed, nil
	}
	return dfs(current, 0)
}

func reverseRels(rs []*graph.Relationship) {
	for i, j := 0, len(rs)-1; i < j; i, j = i+1, j-1 {
		rs[i], rs[j] = rs[j], rs[i]
	}
}

func reverseNodes(ns []*graph.Node) {
	for i, j := 0, len(ns)-1; i < j; i, j = i+1, j-1 {
		ns[i], ns[j] = ns[j], ns[i]
	}
}

// traversalDirection maps a pattern arrow to a graph traversal direction
// given the walk orientation at this pattern position.
func traversalDirection(d RelDirection, forward bool) graph.Direction {
	switch d {
	case DirRight:
		if forward {
			return graph.Outgoing
		}
		return graph.Incoming
	case DirLeft:
		if forward {
			return graph.Incoming
		}
		return graph.Outgoing
	default:
		return graph.Both
	}
}

// bindNode checks a node against a node pattern and binds its variable.
// It returns an undo closure that removes any binding it added.
func (m *matcher) bindNode(np *NodePattern, n *graph.Node, row Row) (bool, func(Row), error) {
	for _, l := range np.Labels {
		if !n.HasLabel(l) {
			return false, nil, nil
		}
	}
	for key, expr := range np.Props {
		want, err := m.ctx.eval(expr, row)
		if err != nil {
			return false, nil, err
		}
		have, ok := n.Props.Get(key)
		if !ok || !graph.ValuesEqual(have, want) {
			return false, nil, nil
		}
	}
	if np.Var == "" {
		return true, func(Row) {}, nil
	}
	if prev, bound := row[np.Var]; bound {
		pn, ok := prev.(*graph.Node)
		if !ok {
			return false, nil, evalErrorf("variable `%s` is not a node", np.Var)
		}
		if pn.ID != n.ID {
			return false, nil, nil
		}
		return true, func(Row) {}, nil
	}
	row[np.Var] = n
	name := np.Var
	return true, func(r Row) { delete(r, name) }, nil
}

// bindRel checks relationship properties and binds the rel variable.
func (m *matcher) bindRel(rp *RelPattern, r *graph.Relationship, row Row) (bool, func(Row), error) {
	if rp.Var == "" {
		return true, func(Row) {}, nil
	}
	if prev, bound := row[rp.Var]; bound {
		pr, ok := prev.(*graph.Relationship)
		if !ok {
			return false, nil, evalErrorf("variable `%s` is not a relationship", rp.Var)
		}
		if pr.ID != r.ID {
			return false, nil, nil
		}
		return true, func(Row) {}, nil
	}
	row[rp.Var] = r
	name := rp.Var
	return true, func(rw Row) { delete(rw, name) }, nil
}

func (m *matcher) relPropsMatch(rp *RelPattern, r *graph.Relationship, row Row) (bool, error) {
	for key, expr := range rp.Props {
		want, err := m.ctx.eval(expr, row)
		if err != nil {
			return false, err
		}
		have, ok := r.Props.Get(key)
		if !ok || !graph.ValuesEqual(have, want) {
			return false, nil
		}
	}
	return true, nil
}

// pickAnchor chooses the node position to start matching from: a bound
// variable wins, then an indexed (label, literal-prop) pair, then any
// labeled node with props, then any labeled node, then position 0.
func (m *matcher) pickAnchor(pat *Pattern, row Row) int {
	best, bestScore := 0, -1
	for i, np := range pat.Nodes {
		score := 0
		if np.Var != "" {
			if _, bound := row[np.Var]; bound {
				score = 1000
			}
		}
		if score == 0 {
			if len(np.Labels) > 0 && len(np.Props) > 0 {
				score = 10
				if !m.ctx.opts.DisableIndexes {
					if _, _, ok := indexedInlineProp(m.ctx.r, np); ok {
						score = 100
					}
				}
			} else if len(np.Labels) > 0 {
				score = 5
			} else if len(np.Props) > 0 {
				score = 2
			} else {
				score = 1
			}
			// A WHERE-derived index hint makes this position nearly as
			// good as an inline-prop index anchor (the inline form also
			// constrains interior positions, so it stays preferred).
			if score < 95 && m.hintFor(np) != nil {
				score = 95
			}
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// candSet is the anchor candidate set: either a pre-resolved node (the
// bound-variable path) or a list of ids resolved lazily, one node per
// pull — so a downstream LIMIT never pays for resolving nodes the scan
// will not reach.
type candSet struct {
	nodes []*graph.Node // bound-variable case; takes precedence
	ids   []int64       // scan/index case, resolved on access
}

func (cs candSet) len() int {
	if cs.nodes != nil {
		return len(cs.nodes)
	}
	return len(cs.ids)
}

// at resolves the i-th candidate; nil means the id vanished (skip it).
func (cs candSet) at(r graph.Reader, i int) *graph.Node {
	if cs.nodes != nil {
		return cs.nodes[i]
	}
	return r.Node(cs.ids[i])
}

// sub returns the [lo, hi) subrange of the candidate set — the morsel
// unit of the parallel executor (see parallel.go).
func (cs candSet) sub(lo, hi int) candSet {
	if cs.nodes != nil {
		return candSet{nodes: cs.nodes[lo:hi]}
	}
	return candSet{ids: cs.ids[lo:hi]}
}

// anchorCandidates produces the starting node set for the anchor
// position, using the cheapest available access path.
func (m *matcher) anchorCandidates(np *NodePattern, row Row) (candSet, error) {
	if np.Var != "" {
		if v, bound := row[np.Var]; bound {
			if graph.KindOf(v) == graph.KindNull {
				return candSet{}, nil // optional-match null propagates to no matches
			}
			n, ok := v.(*graph.Node)
			if !ok {
				return candSet{}, evalErrorf("variable `%s` is not a node", np.Var)
			}
			return candSet{nodes: []*graph.Node{n}}, nil
		}
	}
	// Indexed property lookup.
	if !m.ctx.opts.DisableIndexes {
		if label, prop, ok := indexedInlineProp(m.ctx.r, np); ok {
			want, err := m.ctx.eval(np.Props[prop], row)
			if err != nil {
				return candSet{}, err
			}
			if ids, usedIndex := m.ctx.r.NodesByLabelProp(label, prop, want); usedIndex {
				return candSet{ids: ids}, nil
			}
		}
	}
	// WHERE-derived equality hint: serve the anchor from the property
	// index. The full WHERE filter still runs after matching, so using
	// the (superset-safe) index lookup here cannot change results.
	if hint := m.hintFor(np); hint != nil {
		// A hint-value evaluation error (e.g. a missing parameter) falls
		// back to the scan path: the WHERE filter will surface the same
		// error if and only if rows actually reach it, keeping behavior
		// identical to unplanned execution.
		if want, err := m.ctx.eval(hint.Value, row); err == nil {
			if ids, usedIndex := m.ctx.r.NodesByLabelProp(hint.Label, hint.Prop, want); usedIndex {
				return candSet{ids: ids}, nil
			}
		}
	}
	if len(np.Labels) > 0 {
		// Scan the most selective label (fewest members).
		bestLabel := np.Labels[0]
		bestIDs := m.ctx.r.NodesByLabel(bestLabel)
		for _, l := range np.Labels[1:] {
			ids := m.ctx.r.NodesByLabel(l)
			if len(ids) < len(bestIDs) {
				bestLabel, bestIDs = l, ids
			}
		}
		_ = bestLabel
		return candSet{ids: bestIDs}, nil
	}
	return candSet{ids: m.ctx.r.AllNodeIDs()}, nil
}

// indexedInlineProp picks the (label, property) pair an anchor with
// inline properties is looked up by: the first indexed pair, labels in
// pattern order and properties in key order. The matcher and EXPLAIN
// both ask it, so EXPLAIN names the index the executor probes.
func indexedInlineProp(r graph.Reader, np *NodePattern) (label, prop string, ok bool) {
	if len(np.Labels) == 0 || len(np.Props) == 0 {
		return "", "", false
	}
	props := slices.Sorted(maps.Keys(np.Props))
	for _, l := range np.Labels {
		for _, p := range props {
			if r.HasIndex(l, p) {
				return l, p, true
			}
		}
	}
	return "", "", false
}

// hintFor returns the first WHERE-derived index hint usable for this
// node pattern, or nil. Hints never apply when indexes are disabled.
func (m *matcher) hintFor(np *NodePattern) *indexHint {
	if m.ctx.opts.DisableIndexes || np.Var == "" {
		return nil
	}
	hs := m.hints[np.Var]
	if len(hs) == 0 {
		return nil
	}
	return &hs[0]
}

// patternVars collects the variable names a pattern would introduce —
// used by OPTIONAL MATCH to bind nulls on no-match.
func patternVars(pats []*Pattern) []string {
	var out []string
	seen := map[string]bool{}
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, p := range pats {
		add(p.PathVar)
		for _, n := range p.Nodes {
			add(n.Var)
		}
		for _, r := range p.Rels {
			add(r.Var)
		}
	}
	return out
}
