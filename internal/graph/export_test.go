package graph

import (
	"maps"
	"slices"
)

// rebuiltView returns an epoch of g's current state built from scratch —
// every table, posting and bucket derived anew from the entities as the
// locked API sees them — without publishing it or touching g's open
// edit. It is the reference an incrementally published epoch must
// equal.
func rebuiltView(g *Graph) *View {
	g.mu.Lock()
	defer g.mu.Unlock()
	rs := &readState{
		version:      g.version.Load(),
		nextNode:     g.nextNode,
		nextRel:      g.nextRel,
		nodes:        newTable[*Node](g.nextNode),
		rels:         newTable[*Relationship](g.nextRel),
		adj:          newTable[nodeAdj](g.nextNode),
		byLabel:      map[string][]int64{},
		propIndex:    map[indexPair]map[string][]int64{},
		relTypeCount: map[string]int{},
	}
	out, in := map[int64][]int64{}, map[int64][]int64{}
	for id := int64(1); id < g.nextRel; id++ {
		if r := g.relLocked(id); r != nil {
			*rs.rels.at(id) = r
			rs.relCount++
			rs.relTypeCount[r.Type]++
			out[r.StartID] = append(out[r.StartID], id)
			in[r.EndID] = append(in[r.EndID], id)
		}
	}
	for id := int64(1); id < g.nextNode; id++ {
		n := g.nodeLocked(id)
		if n == nil {
			continue
		}
		*rs.nodes.at(id) = n
		rs.nodeCount++
		rs.allNodes = append(rs.allNodes, id)
		for i, l := range n.Labels {
			if !slices.Contains(n.Labels[:i], l) {
				rs.byLabel[l] = append(rs.byLabel[l], id)
			}
		}
		*rs.adj.at(id) = nodeAdj{out: buildDirAdj(&rs.rels, out[id]), in: buildDirAdj(&rs.rels, in[id])}
	}
	rs.labels = slices.Sorted(maps.Keys(rs.byLabel))
	rs.relTypes = relTypesLocked(rs.relTypeCount)
	for pair := range g.indexPairsLocked() {
		byVal := map[string][]int64{}
		for _, id := range rs.byLabel[pair.label] {
			if v, ok := rs.nodeAt(id).Props.Get(pair.prop); ok {
				byVal[ValueKey(v)] = append(byVal[ValueKey(v)], id)
			}
		}
		rs.propIndex[pair] = byVal
	}
	return &View{rs: rs}
}

// buildDirAdj buckets one direction's ascending rel IDs by type, in the
// order a walk of the list meets the types.
func buildDirAdj(rels *table[*Relationship], ids []int64) dirAdj {
	if len(ids) == 0 {
		return dirAdj{}
	}
	d := dirAdj{all: ids}
	for _, id := range ids {
		typ := (*rels.at(id)).Type
		i := slices.IndexFunc(d.byType, func(b typeBucket) bool { return b.typ == typ })
		if i < 0 {
			d.byType = append(d.byType, typeBucket{typ: typ})
			i = len(d.byType) - 1
		}
		d.byType[i].ids = append(d.byType[i].ids, id)
	}
	return d
}

// liveCount is how many entities the writer holds copies of.
func liveCount(g *Graph) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.live) + len(g.liveRels)
}

// coldPages counts the cold pages of the published epoch's entity
// tables.
func coldPages(g *Graph) int {
	rs := g.published.Load()
	n := 0
	for _, cold := range [][]bool{rs.nodes.cold, rs.rels.cold} {
		for _, c := range cold {
			if c {
				n++
			}
		}
	}
	return n
}

// Exported for the external tests that build worlds with package iyp,
// which imports this one.
var (
	RebuiltView        = rebuiltView
	AssertViewsEqual   = assertViewsEqual
	AssertReadersEqual = assertReadersEqual
)
