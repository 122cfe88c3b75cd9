package graph

import (
	"fmt"
	"maps"
	"sort"
	"strings"
)

// Stats summarizes the shape of a graph: per-label node counts, per-type
// relationship counts, and degree aggregates. The evaluation harness and
// the dataset builder use it for integrity reporting.
type Stats struct {
	Nodes         int
	Relationships int
	NodesByLabel  map[string]int
	RelsByType    map[string]int
	MaxOutDegree  int
	MaxInDegree   int
	AvgDegree     float64
}

// CollectStats returns the Stats of the current epoch (see
// View.CollectStats). It pins one View and touches nothing else, so on
// a cold columnar load it neither hydrates the mutable maps nor
// materializes an entity.
func (g *Graph) CollectStats() Stats {
	return g.View().CollectStats()
}

// CollectStats summarizes the pinned epoch from its tables alone:
// label postings, the per-type relationship counts and the lengths of
// the adjacency lists. No node or relationship is resolved.
func (v *View) CollectStats() Stats {
	rs := v.rs
	s := Stats{
		Nodes:         rs.nodeCount,
		Relationships: rs.relCount,
		NodesByLabel:  make(map[string]int, len(rs.labels)),
		RelsByType:    maps.Clone(rs.relTypeCount),
	}
	for _, l := range rs.labels {
		if n := len(rs.byLabel[l]); n > 0 {
			s.NodesByLabel[l] = n
		}
	}
	totalDeg := 0
	for _, id := range rs.allNodes {
		a := rs.adj.at(id)
		o, i := len(a.out.all), len(a.in.all)
		if o > s.MaxOutDegree {
			s.MaxOutDegree = o
		}
		if i > s.MaxInDegree {
			s.MaxInDegree = i
		}
		totalDeg += o + i
	}
	if s.Nodes > 0 {
		s.AvgDegree = float64(totalDeg) / float64(s.Nodes)
	}
	return s
}

// String renders the stats as a multi-line report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes: %d, relationships: %d, avg degree: %.2f\n", s.Nodes, s.Relationships, s.AvgDegree)
	fmt.Fprintf(&b, "max out-degree: %d, max in-degree: %d\n", s.MaxOutDegree, s.MaxInDegree)
	b.WriteString("labels:\n")
	for _, l := range sortedStringKeys(s.NodesByLabel) {
		fmt.Fprintf(&b, "  %-16s %d\n", l, s.NodesByLabel[l])
	}
	b.WriteString("relationship types:\n")
	for _, t := range sortedStringKeys(s.RelsByType) {
		fmt.Fprintf(&b, "  %-16s %d\n", t, s.RelsByType[t])
	}
	return b.String()
}

func sortedStringKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CheckIntegrity validates internal invariants: every relationship
// endpoint exists, adjacency lists are consistent with the relationship
// table, and label sets match node labels. It returns a list of
// violations (empty means healthy). Primarily used by tests and the
// dataset builder's self-check.
func (g *Graph) CheckIntegrity() []string {
	g.ensureMutable()
	g.mu.RLock()
	defer g.mu.RUnlock()
	var problems []string
	for id, r := range g.rels {
		if _, ok := g.nodes[r.StartID]; !ok {
			problems = append(problems, fmt.Sprintf("rel %d: missing start node %d", id, r.StartID))
		}
		if _, ok := g.nodes[r.EndID]; !ok {
			problems = append(problems, fmt.Sprintf("rel %d: missing end node %d", id, r.EndID))
		}
		if !containsID(g.out[r.StartID], id) {
			problems = append(problems, fmt.Sprintf("rel %d: not in out-adjacency of %d", id, r.StartID))
		}
		if !containsID(g.in[r.EndID], id) {
			problems = append(problems, fmt.Sprintf("rel %d: not in in-adjacency of %d", id, r.EndID))
		}
	}
	for nodeID, relIDs := range g.out {
		for _, rid := range relIDs {
			r, ok := g.rels[rid]
			if !ok {
				problems = append(problems, fmt.Sprintf("node %d: dangling out rel %d", nodeID, rid))
			} else if r.StartID != nodeID {
				problems = append(problems, fmt.Sprintf("node %d: out rel %d starts elsewhere", nodeID, rid))
			}
		}
	}
	for nodeID, relIDs := range g.in {
		for _, rid := range relIDs {
			r, ok := g.rels[rid]
			if !ok {
				problems = append(problems, fmt.Sprintf("node %d: dangling in rel %d", nodeID, rid))
			} else if r.EndID != nodeID {
				problems = append(problems, fmt.Sprintf("node %d: in rel %d ends elsewhere", nodeID, rid))
			}
		}
	}
	for label, set := range g.byLabel {
		for id := range set {
			n, ok := g.nodes[id]
			if !ok {
				problems = append(problems, fmt.Sprintf("label %s: dangling node %d", label, id))
			} else if !n.HasLabel(label) {
				problems = append(problems, fmt.Sprintf("label %s: node %d lacks label", label, id))
			}
		}
	}
	counts := make(map[string]int, len(g.relTypeCount))
	for _, r := range g.rels {
		counts[r.Type]++
	}
	for t, want := range counts {
		if g.relTypeCount[t] != want {
			problems = append(problems, fmt.Sprintf("rel type %s: refcount %d, want %d", t, g.relTypeCount[t], want))
		}
	}
	for t := range g.relTypeCount {
		if counts[t] == 0 {
			problems = append(problems, fmt.Sprintf("rel type %s: stale refcount %d for absent type", t, g.relTypeCount[t]))
		}
	}
	return problems
}

func containsID(ids []int64, id int64) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
