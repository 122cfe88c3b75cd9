package cypher

import (
	"strings"
	"testing"

	"chatiyp/internal/graph"
)

func TestUnionDedupes(t *testing.T) {
	g := fixture(t)
	res := run(t, g, `MATCH (a:AS {asn: 2497}) RETURN a.name AS name
		UNION MATCH (a:AS {asn: 2497}) RETURN a.name AS name`, nil)
	if len(res.Rows) != 1 {
		t.Errorf("UNION should dedupe: %v", res.Rows)
	}
}

func TestUnionAllKeepsDuplicates(t *testing.T) {
	g := fixture(t)
	res := run(t, g, `MATCH (a:AS {asn: 2497}) RETURN a.name AS name
		UNION ALL MATCH (a:AS {asn: 2497}) RETURN a.name AS name`, nil)
	if len(res.Rows) != 2 {
		t.Errorf("UNION ALL rows = %v", res.Rows)
	}
}

func TestUnionCombinesDifferentSources(t *testing.T) {
	g := fixture(t)
	res := run(t, g, `MATCH (a:AS {asn: 2497}) RETURN a.name AS name
		UNION MATCH (c:Country {country_code: 'JP'}) RETURN c.name AS name
		ORDER BY name`, nil)
	want := [][]graph.Value{{"IIJ"}, {"Japan"}}
	// ORDER BY binds to the last sub-query; check as sets.
	got := map[string]bool{}
	for _, row := range res.Rows {
		got[row[0].(string)] = true
	}
	if !got["IIJ"] || !got["Japan"] || len(res.Rows) != 2 {
		t.Errorf("rows = %v, want %v", res.Rows, want)
	}
}

func TestUnionColumnMismatch(t *testing.T) {
	g := fixture(t)
	if _, err := Execute(g, "MATCH (a:AS) RETURN a.name UNION MATCH (a:AS) RETURN a.name, a.asn", nil); err == nil {
		t.Error("column-count mismatch accepted")
	}
	if _, err := Execute(g, "MATCH (a:AS) RETURN a.name AS x UNION MATCH (a:AS) RETURN a.name AS y", nil); err == nil {
		t.Error("column-name mismatch accepted")
	}
}

func TestUnionThreeParts(t *testing.T) {
	g := graph.New()
	res := run(t, g, `RETURN 1 AS n UNION RETURN 2 AS n UNION RETURN 1 AS n`, nil)
	if len(res.Rows) != 2 {
		t.Errorf("three-way union rows = %v", res.Rows)
	}
}

func TestExplainAnchoredLookup(t *testing.T) {
	g := fixture(t)
	plan, err := Explain(g, "MATCH (a:AS {asn: 2497})-[:ORIGINATE]->(p:Prefix) RETURN p.prefix", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "property index (AS, asn)") {
		t.Errorf("plan should use the index:\n%s", plan)
	}
	if !strings.Contains(plan, "expand: 1 relationship hop") {
		t.Errorf("plan should report expansion:\n%s", plan)
	}
}

func TestExplainIndexDisabled(t *testing.T) {
	g := fixture(t)
	plan, err := Explain(g, "MATCH (a:AS {asn: 2497}) RETURN a", Options{DisableIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "label scan :AS") {
		t.Errorf("plan should fall back to a label scan:\n%s", plan)
	}
}

func TestExplainBoundVariable(t *testing.T) {
	g := fixture(t)
	plan, err := Explain(g, `MATCH (a:AS {asn: 2497}) MATCH (a)-[:MEMBER_OF]->(x:IXP) RETURN x`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "bound variable `a`") {
		t.Errorf("second MATCH should anchor on the bound variable:\n%s", plan)
	}
}

func TestExplainAllNodesScan(t *testing.T) {
	g := fixture(t)
	plan, err := Explain(g, "MATCH (n) RETURN count(n)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "all-nodes scan") {
		t.Errorf("plan:\n%s", plan)
	}
	if !strings.Contains(plan, "RETURN (aggregate)") {
		t.Errorf("aggregate projection not reported:\n%s", plan)
	}
}

func TestExplainUnion(t *testing.T) {
	g := fixture(t)
	plan, err := Explain(g, "MATCH (a:AS) RETURN a.name AS n UNION MATCH (c:Country) RETURN c.name AS n", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "UNION (part 2)") {
		t.Errorf("union part missing:\n%s", plan)
	}
}

func TestExplainSyntaxError(t *testing.T) {
	g := fixture(t)
	if _, err := Explain(g, "NOT CYPHER", Options{}); err == nil {
		t.Error("bad query accepted")
	}
}

func TestExplainWriteClauses(t *testing.T) {
	g := fixture(t)
	plan, err := Explain(g, "MATCH (a:AS {asn: 2497}) SET a.x = 1 REMOVE a.x DETACH DELETE a", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SET 1 item", "REMOVE 1 item", "DETACH DELETE"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	// Write stages render inline in the one operator pipeline.
	plan, err = Explain(g, "MATCH (a:AS) WHERE a.asn = 2497 CREATE (n:Note)-[:ON]->(a) RETURN n", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"anchor: node 0 (a:AS) via property index (AS, asn) via WHERE a.asn = 2497",
		"CREATE 1 pattern(s)",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	if !strings.HasPrefix(plan, "streaming operator pipeline\n") {
		t.Errorf("write plan does not start with the pipeline header:\n%s", plan)
	}
}

func TestUnionWithWrites(t *testing.T) {
	// UNION of write stats accumulates.
	g := graph.New()
	res := run(t, g, "CREATE (a:X) RETURN 1 AS n UNION ALL CREATE (b:Y) RETURN 2 AS n", nil)
	if res.Stats.NodesCreated != 2 {
		t.Errorf("stats = %+v", res.Stats)
	}
}
