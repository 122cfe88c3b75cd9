package cypher

import (
	"errors"

	"chatiyp/internal/graph"
)

// writer applies one write clause to a whole binding table, row by
// row in order, against the live graph: a later row observes what an
// earlier row wrote (a MERGE finds the node a previous row created).
// The streaming executor's write barrier (stageWrite) drives it over
// its drained input; stats accumulates the side effects.
type writer struct {
	ctx   *evalCtx
	rows  []Row
	stats *WriteStats
}

// apply runs one write clause over w.rows. MERGE replaces w.rows with
// its matched-or-created rows; the other clauses keep them (CREATE
// binds its new variables in place).
func (w *writer) apply(cl Clause) error {
	switch x := cl.(type) {
	case *CreateClause:
		return w.execCreate(x)
	case *MergeClause:
		return w.execMerge(x)
	case *SetClause:
		return w.execSet(x.Items)
	case *RemoveClause:
		return w.execRemove(x)
	case *DeleteClause:
		return w.execDelete(x)
	}
	return evalErrorf("unsupported clause %T", cl)
}

// execCreate instantiates each pattern once per binding row, reusing
// bound endpoint variables and creating everything unbound.
func (w *writer) execCreate(c *CreateClause) error {
	for _, pat := range c.Patterns {
		for _, r := range pat.Rels {
			if r.VarLength != nil {
				return evalErrorf("CREATE cannot use variable-length relationships")
			}
			if r.Direction == DirBoth {
				return evalErrorf("CREATE requires a directed relationship")
			}
		}
	}
	for _, row := range w.rows {
		for _, pat := range c.Patterns {
			if err := w.createPattern(pat, row); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *writer) createPattern(pat *Pattern, row Row) error {
	nodes := make([]*graph.Node, len(pat.Nodes))
	for i, np := range pat.Nodes {
		n, err := w.resolveOrCreateNode(np, row)
		if err != nil {
			return err
		}
		nodes[i] = n
	}
	for i, rp := range pat.Rels {
		props, err := w.evalPropMap(rp.Props, row)
		if err != nil {
			return err
		}
		if len(rp.Types) != 1 {
			return evalErrorf("CREATE requires exactly one relationship type")
		}
		start, end := nodes[i], nodes[i+1]
		if rp.Direction == DirLeft {
			start, end = end, start
		}
		r, err := w.ctx.g.CreateRelationship(start.ID, end.ID, rp.Types[0], props)
		if err != nil {
			return err
		}
		w.stats.RelationshipsCreated++
		w.stats.PropertiesSet += len(props)
		if rp.Var != "" {
			row[rp.Var] = r
		}
	}
	if pat.PathVar != "" {
		p := graph.Path{Nodes: nodes}
		row[pat.PathVar] = p
	}
	return nil
}

func (w *writer) resolveOrCreateNode(np *NodePattern, row Row) (*graph.Node, error) {
	if np.Var != "" {
		if v, bound := row[np.Var]; bound {
			n, ok := v.(*graph.Node)
			if !ok {
				return nil, evalErrorf("variable `%s` is not a node", np.Var)
			}
			if len(np.Labels) > 0 || len(np.Props) > 0 {
				return nil, evalErrorf("cannot add labels or properties to bound variable `%s` in CREATE", np.Var)
			}
			return n, nil
		}
	}
	props, err := w.evalPropMap(np.Props, row)
	if err != nil {
		return nil, err
	}
	n, err := w.ctx.g.CreateNode(np.Labels, props)
	if err != nil {
		return nil, err
	}
	w.stats.NodesCreated++
	w.stats.PropertiesSet += len(props)
	w.stats.LabelsAdded += len(np.Labels)
	if np.Var != "" {
		row[np.Var] = n
	}
	return n, nil
}

func (w *writer) evalPropMap(props map[string]Expr, row Row) (map[string]any, error) {
	out := make(map[string]any, len(props))
	for k, e := range props {
		v, err := w.ctx.eval(e, row)
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

// execMerge matches the pattern per row; on no match it creates the
// whole pattern (Neo4j semantics for a fully-unbound MERGE pattern).
func (w *writer) execMerge(m *MergeClause) error {
	for _, r := range m.Pattern.Rels {
		if r.VarLength != nil {
			return evalErrorf("MERGE cannot use variable-length relationships")
		}
	}
	var out []Row
	for _, row := range w.rows {
		matcher := &matcher{ctx: w.ctx, usedRels: map[int64]bool{}}
		var matches []Row
		err := matcher.match(m.Pattern, row, func(r Row) bool {
			matches = append(matches, r)
			return true
		})
		if err != nil {
			return err
		}
		if len(matches) > 0 {
			for _, mr := range matches {
				if err := w.applySetItems(m.OnMatchSet, mr); err != nil {
					return err
				}
				out = append(out, mr)
			}
			continue
		}
		created := row.clone()
		// MERGE creation requires directed single-type relationships like
		// CREATE.
		for _, rp := range m.Pattern.Rels {
			if rp.Direction == DirBoth {
				return evalErrorf("MERGE creation requires directed relationships")
			}
			if len(rp.Types) != 1 {
				return evalErrorf("MERGE creation requires exactly one relationship type")
			}
		}
		if err := w.createMergePattern(m.Pattern, created); err != nil {
			return err
		}
		if err := w.applySetItems(m.OnCreateSet, created); err != nil {
			return err
		}
		out = append(out, created)
	}
	w.rows = out
	return nil
}

// createMergePattern is createPattern but allows labels/props on bound
// variables to be interpreted as constraints already satisfied.
func (w *writer) createMergePattern(pat *Pattern, row Row) error {
	nodes := make([]*graph.Node, len(pat.Nodes))
	for i, np := range pat.Nodes {
		if np.Var != "" {
			if v, bound := row[np.Var]; bound {
				n, ok := v.(*graph.Node)
				if !ok {
					return evalErrorf("variable `%s` is not a node", np.Var)
				}
				nodes[i] = n
				continue
			}
		}
		props, err := w.evalPropMap(np.Props, row)
		if err != nil {
			return err
		}
		n, err := w.ctx.g.CreateNode(np.Labels, props)
		if err != nil {
			return err
		}
		w.stats.NodesCreated++
		w.stats.PropertiesSet += len(props)
		w.stats.LabelsAdded += len(np.Labels)
		if np.Var != "" {
			row[np.Var] = n
		}
		nodes[i] = n
	}
	for i, rp := range pat.Rels {
		props, err := w.evalPropMap(rp.Props, row)
		if err != nil {
			return err
		}
		start, end := nodes[i], nodes[i+1]
		if rp.Direction == DirLeft {
			start, end = end, start
		}
		r, err := w.ctx.g.CreateRelationship(start.ID, end.ID, rp.Types[0], props)
		if err != nil {
			return err
		}
		w.stats.RelationshipsCreated++
		w.stats.PropertiesSet += len(props)
		if rp.Var != "" {
			row[rp.Var] = r
		}
	}
	return nil
}

func (w *writer) execSet(items []*SetItem) error {
	for _, row := range w.rows {
		if err := w.applySetItems(items, row); err != nil {
			return err
		}
	}
	return nil
}

func (w *writer) applySetItems(items []*SetItem, row Row) error {
	for _, it := range items {
		v, bound := row[it.Var]
		if !bound {
			return evalErrorf("variable `%s` not defined", it.Var)
		}
		if graph.KindOf(v) == graph.KindNull {
			continue // SET on null (failed optional match) is a no-op
		}
		if len(it.Labels) > 0 {
			n, ok := v.(*graph.Node)
			if !ok {
				return evalErrorf("cannot add labels to non-node `%s`", it.Var)
			}
			for _, l := range it.Labels {
				if err := w.ctx.g.AddNodeLabel(n.ID, l); err != nil {
					return err
				}
				w.stats.LabelsAdded++
			}
			continue
		}
		val, err := w.ctx.eval(it.Expr, row)
		if err != nil {
			return err
		}
		switch e := v.(type) {
		case *graph.Node:
			if err := w.ctx.g.SetNodeProp(e.ID, it.Prop, val); err != nil {
				return err
			}
		case *graph.Relationship:
			if err := w.ctx.g.SetRelProp(e.ID, it.Prop, val); err != nil {
				return err
			}
		default:
			return evalErrorf("cannot SET property on %T", v)
		}
		w.stats.PropertiesSet++
	}
	return nil
}

func (w *writer) execRemove(rc *RemoveClause) error {
	for _, row := range w.rows {
		for _, it := range rc.Items {
			v, bound := row[it.Var]
			if !bound {
				return evalErrorf("variable `%s` not defined", it.Var)
			}
			if graph.KindOf(v) == graph.KindNull {
				continue
			}
			if len(it.Labels) > 0 {
				n, ok := v.(*graph.Node)
				if !ok {
					return evalErrorf("cannot remove labels from non-node `%s`", it.Var)
				}
				for _, l := range it.Labels {
					if err := w.ctx.g.RemoveNodeLabel(n.ID, l); err != nil {
						return err
					}
					w.stats.LabelsRemoved++
				}
				continue
			}
			switch e := v.(type) {
			case *graph.Node:
				if err := w.ctx.g.SetNodeProp(e.ID, it.Prop, nil); err != nil {
					return err
				}
			case *graph.Relationship:
				if err := w.ctx.g.SetRelProp(e.ID, it.Prop, nil); err != nil {
					return err
				}
			default:
				return evalErrorf("cannot REMOVE property from %T", v)
			}
			w.stats.PropertiesSet++
		}
	}
	return nil
}

func (w *writer) execDelete(d *DeleteClause) error {
	deletedNodes := map[int64]bool{}
	deletedRels := map[int64]bool{}
	// del deletes one value: an entity, or every entity of a list (a
	// collected list deletes exactly as its elements bound one by one
	// would, errors and counts included).
	var del func(v graph.Value) error
	del = func(v graph.Value) error {
		switch x := v.(type) {
		case nil:
		case *graph.Node:
			if deletedNodes[x.ID] {
				return nil
			}
			if err := w.ctx.g.DeleteNode(x.ID, d.Detach); err != nil {
				if errors.Is(err, graph.ErrHasRels) {
					return evalErrorf("cannot delete node %d with relationships; use DETACH DELETE", x.ID)
				}
				if errors.Is(err, graph.ErrNodeNotFound) {
					return nil
				}
				return err
			}
			deletedNodes[x.ID] = true
			w.stats.NodesDeleted++
		case *graph.Relationship:
			if deletedRels[x.ID] {
				return nil
			}
			if err := w.ctx.g.DeleteRelationship(x.ID); err != nil {
				if errors.Is(err, graph.ErrRelNotFound) {
					return nil
				}
				return err
			}
			deletedRels[x.ID] = true
			w.stats.RelationshipsDeleted++
		case []graph.Value:
			for _, el := range x {
				if err := del(el); err != nil {
					return err
				}
			}
		default:
			return evalErrorf("cannot DELETE %T", v)
		}
		return nil
	}
	for _, row := range w.rows {
		for _, e := range d.Exprs {
			v, err := w.ctx.eval(e, row)
			if err != nil {
				return err
			}
			if err := del(v); err != nil {
				return err
			}
		}
	}
	return nil
}
