package graph

import "sort"

// CreateIndex declares a property index on (label, property). All current
// and future nodes carrying the label are indexed by that property's
// value, making anchored pattern scans — MATCH (:AS {asn: 2497}) — O(1)
// instead of a full label scan. Creating an existing index is a no-op.
func (g *Graph) CreateIndex(label, property string) {
	g.ensureMutable()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.createIndexLocked(label, property) {
		g.notifyLocked(Mutation{Kind: MutCreateIndex, Label: label, Prop: property})
	}
}

// createIndexLocked declares and backfills an index, reporting whether
// it was newly created. Caller holds g.mu and notifies the observer
// itself.
func (g *Graph) createIndexLocked(label, property string) bool {
	props := g.indexed[label]
	if props == nil {
		props = make(map[string]bool)
		g.indexed[label] = props
	}
	if props[property] {
		return false
	}
	props[property] = true
	g.version.Add(1)
	// A pair the published epoch lacks is built whole by the next
	// publish. Marked even before the first publish, which builds every
	// dirty pair.
	if pair := (indexPair{label, property}); g.dirtyIndex[pair] == nil {
		g.dirtyIndex[pair] = make(map[string]struct{})
	}
	// Backfill existing nodes.
	for id := range g.byLabel[label] {
		n := g.nodes[id]
		if v, ok := n.Props.Get(property); ok {
			g.addToIndexLocked(label, property, v, id)
		}
	}
	return true
}

// HasIndex reports whether a property index exists on (label, property).
func (g *Graph) HasIndex(label, property string) bool {
	g.ensureMutable()
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.indexed[label][property]
}

// Indexes returns every (label, property) pair with an index, sorted by
// label then property.
func (g *Graph) Indexes() [][2]string {
	g.ensureMutable()
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out [][2]string
	for label, props := range g.indexed {
		for p, on := range props {
			if on {
				out = append(out, [2]string{label, p})
			}
		}
	}
	sortPairs(out)
	return out
}

func sortPairs(ps [][2]string) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
}

// NodesByLabelProp returns the IDs of nodes with the given label whose
// property equals value, in ascending ID order. It uses the property
// index when one exists and falls back to a label scan otherwise. The
// second return reports whether an index served the lookup (used by the
// query planner's ablation instrumentation).
func (g *Graph) NodesByLabelProp(label, property string, value any) ([]int64, bool) {
	nv, err := NormalizeValue(value)
	if err != nil {
		return nil, false
	}
	g.ensureMutable()
	g.mu.RLock()
	if g.indexed[label][property] {
		ids := g.propIndex[label][property][ValueKey(nv)]
		out := append([]int64(nil), ids...)
		g.mu.RUnlock()
		sortIDs(out)
		return out, true
	}
	g.mu.RUnlock()
	// Fallback: label scan.
	var out []int64
	for _, id := range g.NodesByLabel(label) {
		n := g.Node(id)
		if v, ok := n.Props.Get(property); ok && ValuesEqual(v, nv) {
			out = append(out, id)
		}
	}
	return out, false
}

// indexNodeLocked inserts the node into every applicable property index.
// Caller holds g.mu.
func (g *Graph) indexNodeLocked(n *Node) {
	for _, label := range n.Labels {
		g.indexLabelLocked(n, label)
	}
}

// indexLabelLocked inserts the node into the property indexes of one of
// its labels. Caller holds g.mu.
func (g *Graph) indexLabelLocked(n *Node, label string) {
	for p, on := range g.indexed[label] {
		if !on {
			continue
		}
		if v, ok := n.Props.Get(p); ok {
			g.addToIndexLocked(label, p, v, n.ID)
		}
	}
}

// unindexNodeLocked removes the node from every applicable property
// index. Caller holds g.mu.
func (g *Graph) unindexNodeLocked(n *Node) {
	for _, label := range n.Labels {
		g.unindexLabelLocked(n, label)
	}
}

// unindexLabelLocked removes the node from the property indexes of one
// of its labels. Caller holds g.mu.
func (g *Graph) unindexLabelLocked(n *Node, label string) {
	for p, on := range g.indexed[label] {
		if !on {
			continue
		}
		if v, ok := n.Props.Get(p); ok {
			g.removeFromIndexLocked(label, p, v, n.ID)
		}
	}
}

func (g *Graph) removeFromIndexLocked(label, property string, v Value, id int64) {
	key := ValueKey(v)
	byVal := g.propIndex[label][property]
	byVal[key] = removeID(byVal[key], id)
	g.noteIndexLocked(indexPair{label, property}, key)
}

func (g *Graph) addToIndexLocked(label, property string, v Value, id int64) {
	byProp := g.propIndex[label]
	if byProp == nil {
		byProp = make(map[string]map[string][]int64)
		g.propIndex[label] = byProp
	}
	byVal := byProp[property]
	if byVal == nil {
		byVal = make(map[string][]int64)
		byProp[property] = byVal
	}
	key := ValueKey(v)
	byVal[key] = append(byVal[key], id)
	g.noteIndexLocked(indexPair{label, property}, key)
}
