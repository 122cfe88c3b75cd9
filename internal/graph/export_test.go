package graph

// rebuiltView returns an epoch of g's current live state built from
// scratch — against an empty predecessor, with every entity and index
// dirty — without publishing it or touching g's dirty sets. It is the
// reference an incrementally published epoch must equal.
func rebuiltView(g *Graph) *View {
	g.ensureMutable()
	g.mu.Lock()
	defer g.mu.Unlock()
	h := &Graph{
		nodes:        g.nodes,
		rels:         g.rels,
		out:          g.out,
		in:           g.in,
		byLabel:      g.byLabel,
		propIndex:    g.propIndex,
		indexed:      g.indexed,
		nextNode:     g.nextNode,
		nextRel:      g.nextRel,
		relTypeCount: g.relTypeCount,
		dirtyIndex:   make(map[indexPair]map[string]struct{}),
	}
	for label, props := range g.indexed {
		for prop, on := range props {
			if on {
				h.dirtyIndex[indexPair{label, prop}] = nil
			}
		}
	}
	h.version.Store(g.version.Load())
	return &View{rs: h.publishLocked()}
}
