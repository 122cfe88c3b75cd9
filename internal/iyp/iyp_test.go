package iyp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"chatiyp/internal/cypher"
	"chatiyp/internal/graph"
)

func buildSmall(t testing.TB) (*graph.Graph, *World) {
	t.Helper()
	g, w, err := Build(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g, w
}

func TestBuildProducesAllLabels(t *testing.T) {
	g, _ := buildSmall(t)
	stats := g.CollectStats()
	for _, label := range []string{
		LabelAS, LabelPrefix, LabelIP, LabelCountry, LabelOrganization,
		LabelIXP, LabelFacility, LabelName, LabelDomainName, LabelTag, LabelRanking,
	} {
		if stats.NodesByLabel[label] == 0 {
			t.Errorf("no nodes with label %s", label)
		}
	}
	for _, rel := range []string{
		RelOriginate, RelDependsOn, RelPeersWith, RelCountry, RelPopulation,
		RelName, RelManagedBy, RelMemberOf, RelLocatedIn, RelRank,
		RelCategorize, RelPartOf, RelResolvesTo, RelROA,
	} {
		if stats.RelsByType[rel] == 0 {
			t.Errorf("no relationships of type %s", rel)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	g1, _ := buildSmall(t)
	g2, _ := buildSmall(t)
	s1, s2 := g1.CollectStats(), g2.CollectStats()
	if s1.Nodes != s2.Nodes || s1.Relationships != s2.Relationships {
		t.Fatalf("non-deterministic build: %+v vs %+v", s1, s2)
	}
	// The columnar encoding is byte-stable for equal graphs, so equal
	// bytes mean every entity, property and index posting is equal.
	b1, err := g1.View().MarshalColumnar(graph.ColMeta{})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := g2.View().MarshalColumnar(graph.ColMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("two builds of one seed encode to different IYPCOL1 bytes")
	}
	// Same ASNs in the same order.
	w1 := NewWorld(SmallConfig())
	w2 := NewWorld(SmallConfig())
	for i := range w1.ASes {
		if w1.ASes[i].ASN != w2.ASes[i].ASN || w1.ASes[i].Name != w2.ASes[i].Name {
			t.Fatalf("world divergence at %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := SmallConfig()
	cfg.Seed = 99
	w1 := NewWorld(SmallConfig())
	w2 := NewWorld(cfg)
	same := 0
	for i := range w1.ASes {
		if w1.ASes[i].ASN == w2.ASes[i].ASN {
			same++
		}
	}
	if same == len(w1.ASes) {
		t.Error("different seeds produced identical ASN sequences")
	}
}

func TestWorldSizes(t *testing.T) {
	cfg := SmallConfig()
	w := NewWorld(cfg)
	if len(w.ASes) != cfg.NumASes {
		t.Errorf("ASes = %d", len(w.ASes))
	}
	if len(w.IXPs) != cfg.NumIXPs {
		t.Errorf("IXPs = %d", len(w.IXPs))
	}
	if len(w.Domains) != cfg.NumDomains {
		t.Errorf("Domains = %d", len(w.Domains))
	}
}

func TestZipfPrefixDistribution(t *testing.T) {
	w := NewWorld(SmallConfig())
	if w.ASes[0].NumPrefixes <= w.ASes[len(w.ASes)-1].NumPrefixes {
		t.Error("prefix counts should decay with rank")
	}
	for _, a := range w.ASes {
		if a.NumPrefixes < 1 {
			t.Error("every AS originates at least one prefix")
		}
	}
}

func TestASNsUnique(t *testing.T) {
	w := NewWorld(SmallConfig())
	seen := map[int64]bool{}
	for _, a := range w.ASes {
		if seen[a.ASN] {
			t.Fatalf("duplicate ASN %d", a.ASN)
		}
		seen[a.ASN] = true
	}
}

func TestPrefixesUniqueInGraph(t *testing.T) {
	g, _ := buildSmall(t)
	seen := map[string]bool{}
	for _, id := range g.NodesByLabel(LabelPrefix) {
		p, _ := g.Node(id).Prop("prefix").(string)
		if seen[p] {
			t.Fatalf("duplicate prefix %s", p)
		}
		seen[p] = true
	}
}

func TestGraphAnswersPaperStyleQueries(t *testing.T) {
	g, w := buildSmall(t)
	// Population question for an AS that has a population estimate.
	var popAS *ASSpec
	for i := range w.ASes {
		if w.ASes[i].PopPercent > 0 {
			popAS = &w.ASes[i]
			break
		}
	}
	if popAS == nil {
		t.Fatal("no AS with population share")
	}
	src := fmt.Sprintf("MATCH (:AS {asn:%d})-[p:POPULATION]-(:Country {country_code:'%s'}) RETURN p.percent",
		popAS.ASN, popAS.Country.Code)
	res, err := cypher.Execute(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Value()
	if !ok || v != popAS.PopPercent {
		t.Errorf("population query = %v (ok=%v), want %v", v, ok, popAS.PopPercent)
	}

	// Name lookup.
	src = fmt.Sprintf("MATCH (a:AS {asn:%d})-[:NAME]->(n:Name) RETURN n.name", w.ASes[0].ASN)
	res, err = cypher.Execute(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Value(); v != w.ASes[0].Name {
		t.Errorf("name query = %v, want %s", v, w.ASes[0].Name)
	}

	// Aggregation: prefixes originated by the biggest AS.
	src = fmt.Sprintf("MATCH (:AS {asn:%d})-[:ORIGINATE]->(p:Prefix) RETURN count(p)", w.ASes[0].ASN)
	res, err = cypher.Execute(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Value(); v != int64(w.ASes[0].NumPrefixes) {
		t.Errorf("prefix count = %v, want %d", v, w.ASes[0].NumPrefixes)
	}

	// CAIDA rank.
	src = fmt.Sprintf("MATCH (:AS {asn:%d})-[r:RANK]->(:Ranking {name:'%s'}) RETURN r.rank", w.ASes[2].ASN, RankingASRank)
	res, err = cypher.Execute(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Value(); v != int64(w.ASes[2].CAIDARank) {
		t.Errorf("rank = %v, want %d", v, w.ASes[2].CAIDARank)
	}
}

func TestHegemonyScoresInRange(t *testing.T) {
	g, _ := buildSmall(t)
	res, err := cypher.Execute(g, "MATCH (:AS)-[d:DEPENDS_ON]->(:AS) RETURN min(d.hegemony), max(d.hegemony)", nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := graph.AsFloat(res.Rows[0][0])
	hi, _ := graph.AsFloat(res.Rows[0][1])
	if lo <= 0 || hi > 1 {
		t.Errorf("hegemony range [%v, %v] outside (0,1]", lo, hi)
	}
}

func TestPopulationSharesSane(t *testing.T) {
	w := NewWorld(SmallConfig())
	totals := map[string]float64{}
	for _, a := range w.ASes {
		totals[a.Country.Code] += a.PopPercent
	}
	for cc, total := range totals {
		if total > 100.001 {
			t.Errorf("country %s population shares sum to %.1f%%", cc, total)
		}
	}
}

func TestSchemaTextMentionsEverything(t *testing.T) {
	txt := SchemaText()
	for _, e := range Schema() {
		if !strings.Contains(txt, e.Name) {
			t.Errorf("schema text missing %s", e.Name)
		}
	}
	if !strings.Contains(txt, "POPULATION") || !strings.Contains(txt, "country_code") {
		t.Error("schema text missing key vocabulary")
	}
}

func TestIndexesCreated(t *testing.T) {
	g, _ := buildSmall(t)
	for _, ix := range Indexes() {
		if !g.HasIndex(ix[0], ix[1]) {
			t.Errorf("missing index on (%s, %s)", ix[0], ix[1])
		}
	}
}

func TestDescriptions(t *testing.T) {
	g, w := buildSmall(t)
	descs := Describe(g)
	if len(descs) == 0 {
		t.Fatal("no descriptions")
	}
	byLabel := map[string]int{}
	for _, d := range descs {
		byLabel[d.Label]++
		if d.Text == "" {
			t.Fatalf("empty description for node %d", d.NodeID)
		}
	}
	for _, label := range []string{LabelAS, LabelIXP, LabelOrganization, LabelCountry, LabelDomainName} {
		if byLabel[label] == 0 {
			t.Errorf("no descriptions for %s", label)
		}
	}
	// The biggest AS's description mentions its name and ASN.
	found := false
	needle := fmt.Sprintf("AS%d", w.ASes[0].ASN)
	for _, d := range descs {
		if strings.Contains(d.Text, needle) && strings.Contains(d.Text, w.ASes[0].Name) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no description mentions %s (%s)", needle, w.ASes[0].Name)
	}
}

func TestPeeringEdgesAreDeduplicated(t *testing.T) {
	g, _ := buildSmall(t)
	type pair [2]int64
	seen := map[pair]bool{}
	g.ForEachRelationship(func(r *graph.Relationship) bool {
		if r.Type != RelPeersWith {
			return true
		}
		a, b := r.StartID, r.EndID
		if seen[pair{a, b}] || seen[pair{b, a}] {
			t.Errorf("duplicate peering edge %d-%d", a, b)
			return false
		}
		seen[pair{a, b}] = true
		return true
	})
}

func TestBuildDefaultScale(t *testing.T) {
	if testing.Short() {
		t.Skip("default build in short mode")
	}
	g, w, err := Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.ASes) != DefaultConfig().NumASes {
		t.Errorf("ASes = %d", len(w.ASes))
	}
	stats := g.CollectStats()
	if stats.Nodes < 3000 {
		t.Errorf("default graph suspiciously small: %d nodes", stats.Nodes)
	}
	if stats.Relationships < stats.Nodes {
		t.Errorf("default graph sparse: %d rels for %d nodes", stats.Relationships, stats.Nodes)
	}
}

func BenchmarkBuildSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := Build(SmallConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildDefault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := Build(DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDescribableNodesAllocs pins DescribableNodes, which runs on every
// retrieval-tier read and build, to one allocation: the result slice,
// sized up front from the label postings.
func TestDescribableNodesAllocs(t *testing.T) {
	g, _, err := Build(ScaleConfig{Seed: 5, ASes: 1200}.Config())
	if err != nil {
		t.Fatal(err)
	}
	v := g.View()
	nodes := DescribableNodes(v)
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1].NodeID >= nodes[i].NodeID {
			t.Fatalf("nodes %d and %d out of order: %d, %d", i-1, i, nodes[i-1].NodeID, nodes[i].NodeID)
		}
	}
	if got := testing.AllocsPerRun(10, func() { DescribableNodes(v) }); got != 1 {
		t.Errorf("DescribableNodes: %.1f allocations, want 1", got)
	}
}
