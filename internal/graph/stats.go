package graph

import (
	"fmt"
	"maps"
	"slices"
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
// a cold columnar load it materializes no entity.
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

// CheckIntegrity publishes the current epoch and validates it: every
// relationship's endpoints exist and list it, every adjacency entry
// lists live relationships of its node in ascending order with buckets
// that partition the list by type, label postings match node labels,
// and the counts agree. It returns a list of violations (empty means
// healthy). Primarily used by tests and the dataset builder's
// self-check.
func (g *Graph) CheckIntegrity() []string {
	rs := g.View().rs
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	counts := map[string]int{}
	for id := int64(0); id < rs.rels.len(); id++ {
		if r := rs.relAt(id); r != nil {
			counts[r.Type]++
			if !lists(rs, r.StartID, Outgoing, id) || !lists(rs, r.EndID, Incoming, id) {
				bad("rel %d: an endpoint of %d->%d is missing or does not list it", id, r.StartID, r.EndID)
			}
		}
	}
	if !maps.Equal(counts, rs.relTypeCount) {
		bad("rels by type %v, counts say %v", counts, rs.relTypeCount)
	}
	labelled := map[string]int{}
	for _, id := range rs.allNodes {
		n := rs.nodeAt(id)
		for i, l := range n.Labels {
			if !slices.Contains(n.Labels[:i], l) {
				labelled[l]++
			}
		}
		for _, d := range []*dirAdj{&rs.adjOf(id).out, &rs.adjOf(id).in} {
			sum := 0
			for _, b := range d.byType {
				sum += len(b.ids)
				for _, rid := range b.ids {
					if r := rs.rel(rid); r == nil || r.Type != b.typ || (r.StartID != id && r.EndID != id) {
						bad("node %d: bucket %q lists rel %d, which is not one of its %q rels", id, b.typ, rid, b.typ)
					}
				}
			}
			if sum != len(d.all) || !slices.IsSorted(d.all) {
				bad("node %d: adjacency list of %d rels, unsorted or not the %d of its buckets", id, len(d.all), sum)
			}
		}
	}
	if len(rs.allNodes) != rs.nodeCount || !slices.IsSorted(rs.allNodes) {
		bad("node list of %d, count %d", len(rs.allNodes), rs.nodeCount)
	}
	for label, ids := range rs.byLabel {
		if len(ids) != labelled[label] || !slices.IsSorted(ids) {
			bad("label %s: posting of %d, %d nodes carry it", label, len(ids), labelled[label])
		}
		for _, id := range ids {
			if n := rs.node(id); n == nil || !n.HasLabel(label) {
				bad("label %s: node %d missing or lacks the label", label, id)
			}
		}
	}
	return problems
}

// lists reports whether node id exists and its adjacency in direction
// dir lists relationship rid.
func lists(rs *readState, id int64, dir Direction, rid int64) bool {
	a := rs.adjOf(id)
	if a == nil || rs.node(id) == nil {
		return false
	}
	d := &a.out
	if dir == Incoming {
		d = &a.in
	}
	_, ok := slices.BinarySearch(d.all, rid)
	return ok
}
