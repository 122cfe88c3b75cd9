package graph

import (
	"iter"
	"slices"
)

// CreateIndex declares a property index on (label, property). All current
// and future nodes carrying the label are indexed by that property's
// value, making anchored pattern scans — MATCH (:AS {asn: 2497}) — O(1)
// instead of a full label scan. Creating an existing index is a no-op.
func (g *Graph) CreateIndex(label, property string) {
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
	pair := indexPair{label, property}
	if g.indexedLocked(pair) {
		return false
	}
	g.version.Add(1)
	// A pair the published epoch lacks is held whole until the next
	// publish hands it over.
	byVal := make(map[string][]int64)
	g.pendingIndex[pair] = byVal
	for _, id := range g.nodesByLabelLocked(label) {
		if v, ok := g.nodeLocked(id).Props.Get(property); ok {
			key := ValueKey(v)
			byVal[key] = append(byVal[key], id)
		}
	}
	return true
}

// indexedLocked reports whether an index exists on pair. Caller holds
// g.mu.
func (g *Graph) indexedLocked(pair indexPair) bool {
	if _, ok := g.published.Load().propIndex[pair]; ok {
		return true
	}
	return g.pendingIndex[pair] != nil
}

// indexPairsLocked lists every index: the published epoch's and the
// ones created since. Caller holds g.mu.
func (g *Graph) indexPairsLocked() iter.Seq[indexPair] {
	return func(yield func(indexPair) bool) {
		published := g.published.Load().propIndex
		for pair := range published {
			if !yield(pair) {
				return
			}
		}
		for pair := range g.pendingIndex {
			if _, ok := published[pair]; !ok && !yield(pair) {
				return
			}
		}
	}
}

// HasIndex reports whether a property index exists on (label, property).
func (g *Graph) HasIndex(label, property string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.indexedLocked(indexPair{label, property})
}

// Indexes returns every (label, property) pair with an index, sorted by
// label then property.
func (g *Graph) Indexes() [][2]string { return g.View().Indexes() }

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
	g.mu.RLock()
	defer g.mu.RUnlock()
	if ids, ok := g.bucketLocked(indexPair{label, property}, ValueKey(nv)); ok {
		out := slices.Clone(ids)
		slices.Sort(out)
		return out, true
	}
	return scanLabelProp(g.nodesByLabelLocked(label), g.nodeLocked, property, nv), false
}

// bucketLocked returns the IDs an index holds under one value key as
// they stand — the open edit's touched bucket, else the published one —
// unsorted and read-only; ok is false when no index exists on pair.
// Caller holds g.mu.
func (g *Graph) bucketLocked(pair indexPair, key string) (ids []int64, ok bool) {
	if ids, ok := g.pendingIndex[pair][key]; ok {
		return ids, true
	}
	if byVal, ok := g.published.Load().propIndex[pair]; ok {
		return byVal[key], true
	}
	return nil, g.pendingIndex[pair] != nil
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
	for pair := range g.indexPairsLocked() {
		if pair.label != label {
			continue
		}
		if v, ok := n.Props.Get(pair.prop); ok {
			g.indexAddLocked(pair, v, n.ID)
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
	for pair := range g.indexPairsLocked() {
		if pair.label != label {
			continue
		}
		if v, ok := n.Props.Get(pair.prop); ok {
			g.indexRemoveLocked(pair, v, n.ID)
		}
	}
}

// touchBucketLocked returns the open edit's copy of one index bucket,
// cloning the published one the first time the edit touches it.
func (g *Graph) touchBucketLocked(pair indexPair, key string) (map[string][]int64, []int64) {
	byVal := g.pendingIndex[pair]
	if byVal == nil {
		byVal = make(map[string][]int64)
		g.pendingIndex[pair] = byVal
	}
	ids, ok := byVal[key]
	if !ok {
		ids = slices.Clone(g.published.Load().propIndex[pair][key])
	}
	return byVal, ids
}

func (g *Graph) indexAddLocked(pair indexPair, v Value, id int64) {
	key := ValueKey(v)
	byVal, ids := g.touchBucketLocked(pair, key)
	byVal[key] = append(ids, id)
}

func (g *Graph) indexRemoveLocked(pair indexPair, v Value, id int64) {
	key := ValueKey(v)
	byVal, ids := g.touchBucketLocked(pair, key)
	byVal[key] = removeID(ids, id)
}
