package iyp

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"chatiyp/internal/graph"
)

// Description is a textual rendering of one graph node plus its local
// neighbourhood — the documents the VectorContextRetriever searches.
type Description struct {
	NodeID int64
	Label  string
	Text   string
}

// describers lists the described labels with their renderers. A node
// carrying several of them is described once, under the first.
var describers = []struct {
	label  string
	render func(*graph.View, *graph.Node) Description
}{
	{LabelAS, describeAS},
	{LabelIXP, describeIXP},
	{LabelOrganization, describeOrg},
	{LabelCountry, describeCountry},
	{LabelDomainName, describeDomain},
}

// Describable is one node Describe renders, and which renderer it gets
// (an index into describers).
type Describable struct {
	NodeID int64
	kind   int
}

// DescribableNodes lists every AS, Organization, IXP, Country, and
// DomainName node of the view in ascending ID order. Prefixes and IPs
// are deliberately excluded: they are numerous and retrieval over them
// is anchored (exact-match) rather than semantic, matching how ChatIYP
// builds its vector context over node descriptions.
func DescribableNodes(v *graph.View) []Describable {
	n := 0
	for _, d := range describers {
		n += len(v.NodesByLabel(d.label))
	}
	out := make([]Describable, 0, n)
	for kind, d := range describers {
		for _, id := range v.NodesByLabel(d.label) {
			out = append(out, Describable{NodeID: id, kind: kind})
		}
	}
	// Stable: a node with two described labels keeps the first.
	slices.SortStableFunc(out, func(a, b Describable) int { return cmp.Compare(a.NodeID, b.NodeID) })
	return slices.CompactFunc(out, func(a, b Describable) bool { return a.NodeID == b.NodeID })
}

// DescribeNode renders one listed node against the view it was listed
// from. It only reads the view, so any number of goroutines may render
// different nodes at once.
func DescribeNode(v *graph.View, d Describable) Description {
	return describers[d.kind].render(v, v.Node(d.NodeID))
}

// Describe renders the natural-language descriptions of
// DescribableNodes, in that order: the serial form of the build
// core.New runs on all cores.
func Describe(graphSrc *graph.Graph) []Description {
	// One pinned snapshot serves the whole walk: every Degree/Incident
	// call below is lock-free, and a concurrent writer cannot make the
	// descriptions observe two different graph states.
	g := graphSrc.View()
	nodes := DescribableNodes(g)
	out := make([]Description, len(nodes))
	for i, d := range nodes {
		out[i] = DescribeNode(g, d)
	}
	return out
}

func describeAS(g *graph.View, n *graph.Node) Description {
	var b strings.Builder
	asn, _ := n.Prop("asn").(int64)
	name, _ := n.Prop("name").(string)
	fmt.Fprintf(&b, "AS%d", asn)
	if name != "" {
		fmt.Fprintf(&b, " (%s)", name)
	}
	b.WriteString(" is an autonomous system")
	if cc := relTargetProp(g, n.ID, RelCountry, "name"); cc != "" {
		fmt.Fprintf(&b, " registered in %s", cc)
	}
	b.WriteString(".")
	if nOrig := g.Degree(n.ID, graph.Outgoing, RelOriginate); nOrig > 0 {
		fmt.Fprintf(&b, " It originates %d prefixes.", nOrig)
	}
	if org := relTargetProp(g, n.ID, RelManagedBy, "name"); org != "" {
		fmt.Fprintf(&b, " It is managed by %s.", org)
	}
	ixps := relTargetProps(g, n.ID, RelMemberOf, "name", 4)
	if len(ixps) > 0 {
		fmt.Fprintf(&b, " It is a member of %s.", strings.Join(ixps, ", "))
	}
	tags := relTargetProps(g, n.ID, RelCategorize, "label", 5)
	if len(tags) > 0 {
		fmt.Fprintf(&b, " Tags: %s.", strings.Join(tags, ", "))
	}
	for _, r := range g.Incident(n.ID, graph.Outgoing, RelPopulation) {
		if pct, ok := r.Prop("percent").(float64); ok {
			if ccName := nodeProp(g, r.EndID, "name"); ccName != "" {
				fmt.Fprintf(&b, " It serves %.1f%% of the Internet population of %s.", pct, ccName)
			}
		}
	}
	return Description{NodeID: n.ID, Label: LabelAS, Text: b.String()}
}

func describeIXP(g *graph.View, n *graph.Node) Description {
	var b strings.Builder
	name, _ := n.Prop("name").(string)
	fmt.Fprintf(&b, "%s is an Internet Exchange Point", name)
	if cc := relTargetProp(g, n.ID, RelCountry, "name"); cc != "" {
		fmt.Fprintf(&b, " in %s", cc)
	}
	b.WriteString(".")
	members := g.Degree(n.ID, graph.Incoming, RelMemberOf)
	fmt.Fprintf(&b, " It has %d member networks.", members)
	if fac := relTargetProp(g, n.ID, RelLocatedIn, "name"); fac != "" {
		fmt.Fprintf(&b, " It is located in the %s facility.", fac)
	}
	return Description{NodeID: n.ID, Label: LabelIXP, Text: b.String()}
}

func describeOrg(g *graph.View, n *graph.Node) Description {
	var b strings.Builder
	name, _ := n.Prop("name").(string)
	fmt.Fprintf(&b, "%s is an organization", name)
	if cc := relTargetProp(g, n.ID, RelCountry, "name"); cc != "" {
		fmt.Fprintf(&b, " based in %s", cc)
	}
	b.WriteString(".")
	var asns []string
	for _, r := range g.Incident(n.ID, graph.Incoming, RelManagedBy) {
		if asn, ok := nodePropValue(g, r.StartID, "asn").(int64); ok {
			asns = append(asns, fmt.Sprintf("AS%d", asn))
		}
	}
	if len(asns) > 0 {
		fmt.Fprintf(&b, " It manages %s.", strings.Join(asns, ", "))
	}
	return Description{NodeID: n.ID, Label: LabelOrganization, Text: b.String()}
}

func describeCountry(g *graph.View, n *graph.Node) Description {
	var b strings.Builder
	name, _ := n.Prop("name").(string)
	code, _ := n.Prop("country_code").(string)
	fmt.Fprintf(&b, "%s (country code %s)", name, code)
	nAS := 0
	for _, r := range g.Incident(n.ID, graph.Incoming, RelCountry) {
		if sn := g.Node(r.StartID); sn != nil && sn.HasLabel(LabelAS) {
			nAS++
		}
	}
	fmt.Fprintf(&b, " has %d registered autonomous systems.", nAS)
	return Description{NodeID: n.ID, Label: LabelCountry, Text: b.String()}
}

func describeDomain(g *graph.View, n *graph.Node) Description {
	var b strings.Builder
	name, _ := n.Prop("name").(string)
	fmt.Fprintf(&b, "%s is a domain name", name)
	for _, r := range g.Incident(n.ID, graph.Outgoing, RelRank) {
		if rank, ok := r.Prop("rank").(int64); ok {
			if list := nodeProp(g, r.EndID, "name"); list != "" {
				fmt.Fprintf(&b, " ranked %d in the %s list", rank, list)
			}
		}
	}
	b.WriteString(".")
	if ip := relTargetProp(g, n.ID, RelResolvesTo, "ip"); ip != "" {
		fmt.Fprintf(&b, " It resolves to %s.", ip)
	}
	return Description{NodeID: n.ID, Label: LabelDomainName, Text: b.String()}
}

func relTargetProp(g *graph.View, id int64, relType, prop string) string {
	for _, r := range g.Incident(id, graph.Outgoing, relType) {
		if s := nodeProp(g, r.EndID, prop); s != "" {
			return s
		}
	}
	return ""
}

func relTargetProps(g *graph.View, id int64, relType, prop string, limit int) []string {
	var out []string
	for _, r := range g.Incident(id, graph.Outgoing, relType) {
		if s := nodeProp(g, r.EndID, prop); s != "" {
			out = append(out, s)
			if len(out) == limit {
				break
			}
		}
	}
	return out
}

func nodeProp(g *graph.View, id int64, prop string) string {
	s, _ := nodePropValue(g, id, prop).(string)
	return s
}

func nodePropValue(g *graph.View, id int64, prop string) graph.Value {
	n := g.Node(id)
	if n == nil {
		return nil
	}
	return n.Prop(prop)
}
