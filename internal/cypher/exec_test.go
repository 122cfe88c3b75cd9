package cypher

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"chatiyp/internal/graph"
)

// fixture builds a miniature IYP-shaped graph:
//
//	AS2497 (IIJ, JP)      originates 192.0.2.0/24, 198.51.100.0/24
//	AS15169 (Google, US)  originates 203.0.113.0/24
//	AS64500 (SmallNet, JP) originates nothing, depends on AS2497
//	AS2497 peers with AS15169, both members of IXP "TESTIX"
//	POPULATION: AS2497 serves 5.2% of JP
func fixture(t testing.TB) *graph.Graph {
	g := graph.New()
	g.CreateIndex("AS", "asn")
	g.CreateIndex("Country", "country_code")
	g.CreateIndex("Prefix", "prefix")

	iij := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": 2497, "name": "IIJ"})
	goog := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": 15169, "name": "Google"})
	small := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": 64500, "name": "SmallNet"})
	jp := g.MustCreateNode([]string{"Country"}, map[string]any{"country_code": "JP", "name": "Japan"})
	us := g.MustCreateNode([]string{"Country"}, map[string]any{"country_code": "US", "name": "United States"})
	p1 := g.MustCreateNode([]string{"Prefix"}, map[string]any{"prefix": "192.0.2.0/24", "af": 4})
	p2 := g.MustCreateNode([]string{"Prefix"}, map[string]any{"prefix": "198.51.100.0/24", "af": 4})
	p3 := g.MustCreateNode([]string{"Prefix"}, map[string]any{"prefix": "203.0.113.0/24", "af": 4})
	ixp := g.MustCreateNode([]string{"IXP"}, map[string]any{"name": "TESTIX"})

	g.MustCreateRelationship(iij.ID, jp.ID, "COUNTRY", nil)
	g.MustCreateRelationship(goog.ID, us.ID, "COUNTRY", nil)
	g.MustCreateRelationship(small.ID, jp.ID, "COUNTRY", nil)
	g.MustCreateRelationship(iij.ID, p1.ID, "ORIGINATE", map[string]any{"count": 3})
	g.MustCreateRelationship(iij.ID, p2.ID, "ORIGINATE", map[string]any{"count": 1})
	g.MustCreateRelationship(goog.ID, p3.ID, "ORIGINATE", map[string]any{"count": 7})
	g.MustCreateRelationship(iij.ID, jp.ID, "POPULATION", map[string]any{"percent": 5.2})
	g.MustCreateRelationship(iij.ID, goog.ID, "PEERS_WITH", nil)
	g.MustCreateRelationship(small.ID, iij.ID, "DEPENDS_ON", map[string]any{"hegemony": 0.8})
	g.MustCreateRelationship(iij.ID, ixp.ID, "MEMBER_OF", nil)
	g.MustCreateRelationship(goog.ID, ixp.ID, "MEMBER_OF", nil)
	return g
}

func run(t testing.TB, g *graph.Graph, src string, params map[string]any) *Result {
	t.Helper()
	res, err := Execute(g, src, params)
	if err != nil {
		t.Fatalf("Execute(%q): %v", src, err)
	}
	return res
}

func single(t testing.TB, g *graph.Graph, src string) graph.Value {
	t.Helper()
	res := run(t, g, src, nil)
	v, ok := res.Value()
	if !ok {
		t.Fatalf("query %q: want single value, got %d rows x %d cols", src, len(res.Rows), len(res.Columns))
	}
	return v
}

func TestExecPaperIntroQuery(t *testing.T) {
	g := fixture(t)
	v := single(t, g, "MATCH (:AS {asn:2497})-[p:POPULATION]-(:Country {country_code:'JP'}) RETURN p.percent")
	if v != 5.2 {
		t.Errorf("percent = %v, want 5.2", v)
	}
}

func TestExecNodeLookup(t *testing.T) {
	g := fixture(t)
	v := single(t, g, "MATCH (a:AS {asn: 2497}) RETURN a.name")
	if v != "IIJ" {
		t.Errorf("name = %v", v)
	}
}

func TestExecDirectedTraversal(t *testing.T) {
	g := fixture(t)
	res := run(t, g, "MATCH (a:AS {asn: 2497})-[:ORIGINATE]->(p:Prefix) RETURN p.prefix ORDER BY p.prefix", nil)
	want := [][]graph.Value{{"192.0.2.0/24"}, {"198.51.100.0/24"}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v", res.Rows)
	}
	// Reverse direction finds nothing.
	res2 := run(t, g, "MATCH (a:AS {asn: 2497})<-[:ORIGINATE]-(p:Prefix) RETURN p.prefix", nil)
	if len(res2.Rows) != 0 {
		t.Errorf("reverse rows = %v", res2.Rows)
	}
	// Undirected finds both.
	res3 := run(t, g, "MATCH (a:AS {asn: 2497})-[:ORIGINATE]-(p:Prefix) RETURN p.prefix", nil)
	if len(res3.Rows) != 2 {
		t.Errorf("undirected rows = %v", res3.Rows)
	}
}

func TestExecCountAggregate(t *testing.T) {
	g := fixture(t)
	if v := single(t, g, "MATCH (a:AS) RETURN count(a)"); v != int64(3) {
		t.Errorf("count = %v", v)
	}
	if v := single(t, g, "MATCH (n) RETURN count(*)"); v != int64(9) {
		t.Errorf("count(*) = %v", v)
	}
}

func TestExecGroupedAggregation(t *testing.T) {
	g := fixture(t)
	res := run(t, g, `MATCH (a:AS)-[:ORIGINATE]->(p:Prefix)
		RETURN a.name AS name, count(p) AS cnt ORDER BY cnt DESC, name`, nil)
	want := [][]graph.Value{{"IIJ", int64(2)}, {"Google", int64(1)}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v", res.Rows)
	}
	if !reflect.DeepEqual(res.Columns, []string{"name", "cnt"}) {
		t.Errorf("cols = %v", res.Columns)
	}
}

func TestExecSumAvgMinMax(t *testing.T) {
	g := fixture(t)
	res := run(t, g, `MATCH (:AS)-[r:ORIGINATE]->(:Prefix)
		RETURN sum(r.count), avg(r.count), min(r.count), max(r.count)`, nil)
	row := res.Rows[0]
	if row[0] != int64(11) {
		t.Errorf("sum = %v", row[0])
	}
	if row[1].(float64) < 3.66 || row[1].(float64) > 3.67 {
		t.Errorf("avg = %v", row[1])
	}
	if row[2] != int64(1) || row[3] != int64(7) {
		t.Errorf("min/max = %v/%v", row[2], row[3])
	}
}

func TestExecCollect(t *testing.T) {
	g := fixture(t)
	v := single(t, g, `MATCH (a:AS {asn: 2497})-[:ORIGINATE]->(p) RETURN collect(p.prefix)`)
	list, ok := v.([]graph.Value)
	if !ok || len(list) != 2 {
		t.Fatalf("collect = %v", v)
	}
}

func TestExecCountDistinct(t *testing.T) {
	g := fixture(t)
	v := single(t, g, "MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN count(DISTINCT c)")
	if v != int64(2) {
		t.Errorf("distinct countries = %v", v)
	}
	v2 := single(t, g, "MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN count(c)")
	if v2 != int64(3) {
		t.Errorf("all countries = %v", v2)
	}
}

func TestExecWhereFilters(t *testing.T) {
	g := fixture(t)
	res := run(t, g, "MATCH (a:AS) WHERE a.asn > 3000 RETURN a.name ORDER BY a.name", nil)
	want := [][]graph.Value{{"Google"}, {"SmallNet"}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v", res.Rows)
	}
	res2 := run(t, g, "MATCH (a:AS) WHERE a.name STARTS WITH 'I' RETURN a.name", nil)
	if len(res2.Rows) != 1 || res2.Rows[0][0] != "IIJ" {
		t.Errorf("rows = %v", res2.Rows)
	}
	res3 := run(t, g, "MATCH (a:AS) WHERE a.asn IN [2497, 15169] RETURN count(*)", nil)
	if res3.Rows[0][0] != int64(2) {
		t.Errorf("IN filter = %v", res3.Rows)
	}
}

func TestExecMultiHop(t *testing.T) {
	g := fixture(t)
	// Which country hosts the AS that SmallNet depends on?
	v := single(t, g, `MATCH (:AS {asn: 64500})-[:DEPENDS_ON]->(:AS)-[:COUNTRY]->(c:Country)
		RETURN c.country_code`)
	if v != "JP" {
		t.Errorf("country = %v", v)
	}
}

func TestExecMultiPattern(t *testing.T) {
	g := fixture(t)
	// ASes in the same country as AS2497.
	res := run(t, g, `MATCH (a:AS {asn: 2497})-[:COUNTRY]->(c:Country), (b:AS)-[:COUNTRY]->(c)
		WHERE b.asn <> 2497 RETURN b.name`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0] != "SmallNet" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecOptionalMatch(t *testing.T) {
	g := fixture(t)
	res := run(t, g, `MATCH (a:AS) OPTIONAL MATCH (a)-[d:DEPENDS_ON]->(up:AS)
		RETURN a.name, up.name ORDER BY a.name`, nil)
	want := [][]graph.Value{{"Google", nil}, {"IIJ", nil}, {"SmallNet", "IIJ"}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecRelationshipUniqueness(t *testing.T) {
	g := fixture(t)
	// A-[:PEERS_WITH]-B-[:PEERS_WITH]-C cannot reuse the same rel, so a
	// 2-hop peer walk from IIJ finds nothing (only one peering edge).
	res := run(t, g, `MATCH (a:AS {asn: 2497})-[:PEERS_WITH]-(b:AS)-[:PEERS_WITH]-(c:AS) RETURN c.name`, nil)
	if len(res.Rows) != 0 {
		t.Errorf("rel reused: %v", res.Rows)
	}
}

func TestExecVarLength(t *testing.T) {
	g := fixture(t)
	// SmallNet -> IIJ -> (peers) Google within 2 hops over any rel type.
	res := run(t, g, `MATCH (a:AS {asn: 64500})-[:DEPENDS_ON|PEERS_WITH*1..2]-(b:AS)
		RETURN DISTINCT b.name ORDER BY b.name`, nil)
	want := [][]graph.Value{{"Google"}, {"IIJ"}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecNamedPath(t *testing.T) {
	g := fixture(t)
	res := run(t, g, `MATCH p = (:AS {asn: 64500})-[:DEPENDS_ON]->(:AS) RETURN size(relationships(p)), size(nodes(p))`, nil)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0] != int64(1) || res.Rows[0][1] != int64(2) {
		t.Errorf("path sizes = %v", res.Rows[0])
	}
}

func TestExecWithPipeline(t *testing.T) {
	g := fixture(t)
	res := run(t, g, `MATCH (a:AS)-[:ORIGINATE]->(p:Prefix)
		WITH a, count(p) AS cnt WHERE cnt >= 2
		MATCH (a)-[:COUNTRY]->(c:Country)
		RETURN a.name, cnt, c.country_code`, nil)
	want := [][]graph.Value{{"IIJ", int64(2), "JP"}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecUnwind(t *testing.T) {
	g := graph.New()
	res := run(t, g, "UNWIND [3, 1, 2] AS x RETURN x ORDER BY x", nil)
	want := [][]graph.Value{{int64(1)}, {int64(2)}, {int64(3)}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v", res.Rows)
	}
	res2 := run(t, g, "UNWIND [] AS x RETURN x", nil)
	if len(res2.Rows) != 0 {
		t.Errorf("empty unwind rows = %v", res2.Rows)
	}
	res3 := run(t, g, "UNWIND range(1, 4) AS x RETURN sum(x)", nil)
	if res3.Rows[0][0] != int64(10) {
		t.Errorf("sum(range) = %v", res3.Rows)
	}
}

func TestExecSkipLimit(t *testing.T) {
	g := fixture(t)
	res := run(t, g, "MATCH (a:AS) RETURN a.asn ORDER BY a.asn SKIP 1 LIMIT 1", nil)
	want := [][]graph.Value{{int64(15169)}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecDistinct(t *testing.T) {
	g := fixture(t)
	res := run(t, g, "MATCH (:AS)-[:COUNTRY]->(c:Country) RETURN DISTINCT c.country_code ORDER BY c.country_code", nil)
	want := [][]graph.Value{{"JP"}, {"US"}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecReturnStar(t *testing.T) {
	g := fixture(t)
	res := run(t, g, "MATCH (a:AS {asn: 2497})-[:COUNTRY]->(c:Country) RETURN *", nil)
	if !reflect.DeepEqual(res.Columns, []string{"a", "c"}) {
		t.Errorf("cols = %v", res.Columns)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecParameters(t *testing.T) {
	g := fixture(t)
	res, err := Execute(g, "MATCH (a:AS {asn: $asn}) RETURN a.name", map[string]any{"asn": 2497})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "IIJ" {
		t.Errorf("rows = %v", res.Rows)
	}
	if _, err := Execute(g, "MATCH (a:AS {asn: $missing}) RETURN a", nil); err == nil {
		t.Error("missing parameter should error")
	}
}

func TestExecNullSemantics(t *testing.T) {
	g := fixture(t)
	// Prefixes have no 'name' property: comparisons with null are null,
	// so WHERE filters them out.
	res := run(t, g, "MATCH (p:Prefix) WHERE p.name = 'x' RETURN p", nil)
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", res.Rows)
	}
	res2 := run(t, g, "MATCH (p:Prefix) WHERE p.name IS NULL RETURN count(*)", nil)
	if res2.Rows[0][0] != int64(3) {
		t.Errorf("IS NULL count = %v", res2.Rows)
	}
	// count(prop) skips nulls.
	res3 := run(t, g, "MATCH (p:Prefix) RETURN count(p.name)", nil)
	if res3.Rows[0][0] != int64(0) {
		t.Errorf("count(null prop) = %v", res3.Rows)
	}
}

func TestExecThreeValuedLogic(t *testing.T) {
	g := graph.New()
	g.MustCreateNode([]string{"N"}, map[string]any{"x": 1})
	// null OR true = true; null AND true = null (filtered).
	res := run(t, g, "MATCH (n:N) WHERE n.missing = 1 OR n.x = 1 RETURN count(*)", nil)
	if res.Rows[0][0] != int64(1) {
		t.Errorf("OR with null = %v", res.Rows)
	}
	res2 := run(t, g, "MATCH (n:N) WHERE n.missing = 1 AND n.x = 1 RETURN count(*)", nil)
	if res2.Rows[0][0] != int64(0) {
		t.Errorf("AND with null = %v", res2.Rows)
	}
	// NOT null = null (filtered).
	res3 := run(t, g, "MATCH (n:N) WHERE NOT (n.missing = 1) RETURN count(*)", nil)
	if res3.Rows[0][0] != int64(0) {
		t.Errorf("NOT null = %v", res3.Rows)
	}
}

func TestExecStringFunctions(t *testing.T) {
	g := fixture(t)
	res := run(t, g, `MATCH (a:AS {asn: 2497})
		RETURN toUpper(a.name), toLower(a.name), size(a.name), replace(a.name, 'II', 'XX'),
		       split('a,b', ','), substring(a.name, 0, 2), trim('  x ')`, nil)
	row := res.Rows[0]
	if row[0] != "IIJ" || row[1] != "iij" || row[2] != int64(3) || row[3] != "XXJ" {
		t.Errorf("string funcs = %v", row)
	}
	if row[5] != "II" || row[6] != "x" {
		t.Errorf("substring/trim = %v %v", row[5], row[6])
	}
}

func TestExecCaseExpr(t *testing.T) {
	g := fixture(t)
	res := run(t, g, `MATCH (a:AS) RETURN a.name,
		CASE WHEN a.asn < 10000 THEN 'low' ELSE 'high' END AS band ORDER BY a.asn`, nil)
	if res.Rows[0][1] != "low" || res.Rows[1][1] != "high" {
		t.Errorf("case = %v", res.Rows)
	}
}

func TestExecListComprehension(t *testing.T) {
	g := graph.New()
	res := run(t, g, "RETURN [x IN range(1, 5) WHERE x % 2 = 0 | x * 10] AS evens", nil)
	want := []graph.Value{int64(20), int64(40)}
	if !reflect.DeepEqual(res.Rows[0][0], want) {
		t.Errorf("comprehension = %v", res.Rows[0][0])
	}
}

func TestExecQuantifiers(t *testing.T) {
	g := graph.New()
	res := run(t, g, `RETURN any(x IN [1,2] WHERE x = 2), all(x IN [1,2] WHERE x > 0),
		none(x IN [1,2] WHERE x = 3), single(x IN [1,2] WHERE x = 1)`, nil)
	row := res.Rows[0]
	for i, want := range []graph.Value{true, true, true, true} {
		if row[i] != want {
			t.Errorf("quantifier %d = %v", i, row[i])
		}
	}
}

func TestExecPatternPredicate(t *testing.T) {
	g := fixture(t)
	res := run(t, g, `MATCH (a:AS) WHERE (a)-[:MEMBER_OF]->(:IXP) RETURN a.name ORDER BY a.name`, nil)
	want := [][]graph.Value{{"Google"}, {"IIJ"}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v", res.Rows)
	}
	res2 := run(t, g, `MATCH (a:AS) WHERE NOT exists((a)-[:MEMBER_OF]->(:IXP)) RETURN a.name`, nil)
	if len(res2.Rows) != 1 || res2.Rows[0][0] != "SmallNet" {
		t.Errorf("rows = %v", res2.Rows)
	}
}

func TestExecLabelsTypeID(t *testing.T) {
	g := fixture(t)
	res := run(t, g, `MATCH (a:AS {asn: 2497})-[r:POPULATION]-(c:Country) RETURN labels(a), type(r), id(a) >= 0`, nil)
	row := res.Rows[0]
	if !reflect.DeepEqual(row[0], []graph.Value{"AS"}) || row[1] != "POPULATION" || row[2] != true {
		t.Errorf("row = %v", row)
	}
}

func TestExecCreateAndReadBack(t *testing.T) {
	g := graph.New()
	res := run(t, g, "CREATE (a:AS {asn: 1})-[:COUNTRY]->(c:Country {country_code: 'GR'})", nil)
	if res.Stats.NodesCreated != 2 || res.Stats.RelationshipsCreated != 1 {
		t.Errorf("stats = %+v", res.Stats)
	}
	v := single(t, g, "MATCH (a:AS)-[:COUNTRY]->(c) RETURN c.country_code")
	if v != "GR" {
		t.Errorf("country = %v", v)
	}
}

func TestExecCreateFromMatch(t *testing.T) {
	g := fixture(t)
	run(t, g, `MATCH (a:AS {asn: 2497}), (b:AS {asn: 64500}) CREATE (b)-[:PEERS_WITH]->(a)`, nil)
	res := run(t, g, "MATCH (:AS {asn: 64500})-[:PEERS_WITH]->(:AS {asn: 2497}) RETURN count(*)", nil)
	if res.Rows[0][0] != int64(1) {
		t.Errorf("created rel not found")
	}
}

func TestExecMerge(t *testing.T) {
	g := graph.New()
	run(t, g, "MERGE (a:AS {asn: 1}) ON CREATE SET a.created = true ON MATCH SET a.matched = true", nil)
	run(t, g, "MERGE (a:AS {asn: 1}) ON CREATE SET a.created = true ON MATCH SET a.matched = true", nil)
	res := run(t, g, "MATCH (a:AS {asn: 1}) RETURN a.created, a.matched, count(*)", nil)
	if len(res.Rows) != 1 {
		t.Fatalf("merge duplicated node: %v", res.Rows)
	}
	if res.Rows[0][0] != true || res.Rows[0][1] != true {
		t.Errorf("merge set flags = %v", res.Rows[0])
	}
}

func TestExecSetRemoveDelete(t *testing.T) {
	g := fixture(t)
	run(t, g, "MATCH (a:AS {asn: 2497}) SET a.rank = 10, a:Operator", nil)
	v := single(t, g, "MATCH (a:Operator) RETURN a.rank")
	if v != int64(10) {
		t.Errorf("rank = %v", v)
	}
	run(t, g, "MATCH (a:AS {asn: 2497}) REMOVE a.rank, a:Operator", nil)
	res := run(t, g, "MATCH (a:AS {asn: 2497}) RETURN a.rank", nil)
	if res.Rows[0][0] != nil {
		t.Errorf("rank survived remove: %v", res.Rows)
	}
	// Delete with rels requires DETACH.
	if _, err := Execute(g, "MATCH (a:AS {asn: 2497}) DELETE a", nil); err == nil {
		t.Error("delete with rels must fail")
	}
	res2 := run(t, g, "MATCH (a:AS {asn: 2497}) DETACH DELETE a", nil)
	if res2.Stats.NodesDeleted != 1 {
		t.Errorf("stats = %+v", res2.Stats)
	}
	res3 := run(t, g, "MATCH (a:AS) RETURN count(*)", nil)
	if res3.Rows[0][0] != int64(2) {
		t.Errorf("AS count after delete = %v", res3.Rows)
	}
}

// TestDeleteCollectedList: DELETE over a collected list deletes, fails
// and counts exactly as DELETE of the same entities bound one by one.
func TestDeleteCollectedList(t *testing.T) {
	g := graph.New()
	run(t, g, "CREATE (a:A)-[:R]->(b:B), (:C), (:C)", nil)
	if _, err := Execute(g, "MATCH (a:A) WITH collect(a) AS xs DELETE xs", nil); err == nil || !strings.Contains(err.Error(), "DETACH DELETE") {
		t.Fatalf("DELETE of a collected node with relationships: err = %v, want the DETACH DELETE error", err)
	}
	if got := single(t, g, "MATCH (a:A) RETURN count(a)"); got != int64(1) {
		t.Fatalf("the failed DELETE removed the node: count = %v", got)
	}
	res := run(t, g, "MATCH (c:C) WITH collect(c) AS xs DELETE xs RETURN size(xs)", nil)
	if res.Stats.NodesDeleted != 2 {
		t.Errorf("DELETE of two collected nodes: stats %+v, want 2 nodes deleted", res.Stats)
	}
	res = run(t, g, "MATCH (:A)-[r:R]->() WITH collect(r) AS rs DELETE rs", nil)
	if res.Stats.RelationshipsDeleted != 1 {
		t.Errorf("DELETE of a collected relationship: stats %+v, want 1 deleted", res.Stats)
	}
	res = run(t, g, "MATCH (a:A) WITH collect(a) AS xs DETACH DELETE xs", nil)
	if res.Stats.NodesDeleted != 1 || g.NodeCount() != 1 {
		t.Errorf("DETACH DELETE of a collected node: stats %+v, %d nodes left, want 1 deleted and 1 left", res.Stats, g.NodeCount())
	}
}

func TestExecAggregateOverEmptyInput(t *testing.T) {
	g := graph.New()
	res := run(t, g, "MATCH (a:Nothing) RETURN count(*), count(a), collect(a.x), sum(a.x)", nil)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	row := res.Rows[0]
	if row[0] != int64(0) || row[1] != int64(0) {
		t.Errorf("counts = %v", row)
	}
	if list, ok := row[2].([]graph.Value); !ok || len(list) != 0 {
		t.Errorf("collect = %v", row[2])
	}
	if row[3] != int64(0) {
		t.Errorf("sum = %v", row[3])
	}
	// Grouped aggregation over empty input yields no rows.
	res2 := run(t, g, "MATCH (a:Nothing) RETURN a.name, count(*)", nil)
	if len(res2.Rows) != 0 {
		t.Errorf("grouped rows = %v", res2.Rows)
	}
}

func TestExecOrderByUnderlyingVar(t *testing.T) {
	g := fixture(t)
	// ORDER BY may reference non-projected variables when no aggregation.
	res := run(t, g, "MATCH (a:AS) RETURN a.name ORDER BY a.asn DESC", nil)
	want := [][]graph.Value{{"SmallNet"}, {"Google"}, {"IIJ"}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecArithmetic(t *testing.T) {
	g := graph.New()
	res := run(t, g, "RETURN 2 + 3 * 4, (2 + 3) * 4, 7 / 2, 7.0 / 2, 7 % 3, 2 ^ 10, -5 + 1", nil)
	row := res.Rows[0]
	want := []graph.Value{int64(14), int64(20), int64(3), 3.5, int64(1), 1024.0, int64(-4)}
	for i := range want {
		if !graph.ValuesEqual(row[i], want[i]) {
			t.Errorf("col %d = %v, want %v", i, row[i], want[i])
		}
	}
	if _, err := Execute(g, "RETURN 1 / 0", nil); err == nil {
		t.Error("division by zero should error")
	}
}

func TestExecStringConcat(t *testing.T) {
	g := graph.New()
	v := single(t, g, "RETURN 'AS' + 2497")
	if v != "AS2497" {
		t.Errorf("concat = %v", v)
	}
}

func TestExecRegex(t *testing.T) {
	g := fixture(t)
	res := run(t, g, `MATCH (a:AS) WHERE a.name =~ 'I.*' RETURN a.name`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0] != "IIJ" {
		t.Errorf("regex rows = %v", res.Rows)
	}
}

func TestExecCoalesce(t *testing.T) {
	g := fixture(t)
	v := single(t, g, "MATCH (p:Prefix {prefix: '192.0.2.0/24'}) RETURN coalesce(p.name, p.prefix, 'none')")
	if v != "192.0.2.0/24" {
		t.Errorf("coalesce = %v", v)
	}
}

func TestExecRowLimit(t *testing.T) {
	g := graph.New()
	for i := 0; i < 40; i++ {
		g.MustCreateNode([]string{"N"}, map[string]any{"i": i})
	}
	_, err := ExecuteWith(g, "MATCH (a:N), (b:N), (c:N) RETURN count(*)", nil, Options{MaxRows: 1000})
	if !errors.Is(err, ErrTooManyRows) {
		t.Errorf("err = %v, want ErrTooManyRows", err)
	}
}

func TestExecIndexAblation(t *testing.T) {
	g := fixture(t)
	// Same result with and without indexes.
	src := "MATCH (a:AS {asn: 2497}) RETURN a.name"
	r1, err := ExecuteWith(g, src, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ExecuteWith(g, src, nil, Options{DisableIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Errorf("index ablation changed results: %v vs %v", r1.Rows, r2.Rows)
	}
}

func TestExecVarLengthBounds(t *testing.T) {
	// Chain a1 -> a2 -> a3 -> a4.
	g := graph.New()
	var prev *graph.Node
	for i := 1; i <= 4; i++ {
		n := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": i})
		if prev != nil {
			g.MustCreateRelationship(prev.ID, n.ID, "DEPENDS_ON", nil)
		}
		prev = n
	}
	res := run(t, g, "MATCH (:AS {asn: 1})-[:DEPENDS_ON*2..3]->(b:AS) RETURN b.asn ORDER BY b.asn", nil)
	want := [][]graph.Value{{int64(3)}, {int64(4)}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v", res.Rows)
	}
	// Zero-length matches the start node itself.
	res2 := run(t, g, "MATCH (a:AS {asn: 1})-[:DEPENDS_ON*0..1]->(b:AS) RETURN b.asn ORDER BY b.asn", nil)
	want2 := [][]graph.Value{{int64(1)}, {int64(2)}}
	if !reflect.DeepEqual(res2.Rows, want2) {
		t.Errorf("zero-length rows = %v", res2.Rows)
	}
}

func TestExecVarLengthRelList(t *testing.T) {
	g := fixture(t)
	res := run(t, g, `MATCH (:AS {asn: 64500})-[rs:DEPENDS_ON*1..2]-(b:AS {asn: 2497}) RETURN size(rs)`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(1) {
		t.Errorf("rel list = %v", res.Rows)
	}
}

func TestExecDeterministicOrder(t *testing.T) {
	g := fixture(t)
	src := "MATCH (a:AS)-[:ORIGINATE]->(p:Prefix) RETURN a.asn, p.prefix"
	first := run(t, g, src, nil)
	for i := 0; i < 5; i++ {
		again := run(t, g, src, nil)
		if !reflect.DeepEqual(first.Rows, again.Rows) {
			t.Fatalf("non-deterministic results: %v vs %v", first.Rows, again.Rows)
		}
	}
}

func TestExecErrorsAreTyped(t *testing.T) {
	g := fixture(t)
	cases := []string{
		"MATCH (a:AS) RETURN undefined_var",
		"MATCH (a:AS) RETURN unknownFunc(a)",
		"MATCH (a:AS) RETURN a.name + a", // string + node
		"RETURN sum(1)",                  // fine actually — aggregate over single group
	}
	for _, src := range cases[:3] {
		if _, err := Execute(g, src, nil); err == nil {
			t.Errorf("Execute(%q) should fail", src)
		}
	}
}

func TestExecScalarOverAggregates(t *testing.T) {
	g := fixture(t)
	v := single(t, g, `MATCH (:AS)-[r:ORIGINATE]->(:Prefix) RETURN round(avg(r.count))`)
	if v != 4.0 {
		t.Errorf("round(avg) = %v", v)
	}
	v2 := single(t, g, `MATCH (a:AS)-[:ORIGINATE]->(p) RETURN count(p) * 10`)
	if v2 != int64(30) {
		t.Errorf("count*10 = %v", v2)
	}
}

func TestExecPercentiles(t *testing.T) {
	g := graph.New()
	res := run(t, g, "UNWIND [1, 2, 3, 4] AS x RETURN percentileCont(x, 0.5), percentileDisc(x, 0.5), stDev(x)", nil)
	row := res.Rows[0]
	if row[0] != 2.5 {
		t.Errorf("percentileCont = %v", row[0])
	}
	if row[1] != 2.0 {
		t.Errorf("percentileDisc = %v", row[1])
	}
	sd, _ := graph.AsFloat(row[2])
	if sd < 1.29 || sd > 1.30 {
		t.Errorf("stDev = %v", sd)
	}
}

func BenchmarkExecAnchoredLookup(b *testing.B) {
	g := fixture(b)
	q, err := Parse("MATCH (a:AS {asn: 2497}) RETURN a.name")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteQuery(g, q, nil, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecTwoHopAggregate(b *testing.B) {
	g := fixture(b)
	q, err := Parse("MATCH (a:AS)-[:ORIGINATE]->(p:Prefix) RETURN a.name, count(p)")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteQuery(g, q, nil, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	src := `MATCH (a:AS)-[:ORIGINATE]->(p:Prefix)-[:COUNTRY]->(c:Country)
		WHERE a.asn > 1000 WITH c, count(p) AS n RETURN c.country_code, n ORDER BY n DESC LIMIT 10`
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
