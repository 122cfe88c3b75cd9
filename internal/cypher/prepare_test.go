package cypher

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"chatiyp/internal/graph"
)

// asGraph builds a small AS-shaped graph with an index on (AS, asn).
func asGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g := graph.New()
	g.CreateIndex("AS", "asn")
	for i := 1; i <= n; i++ {
		as := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": 1000 + i})
		name := g.MustCreateNode([]string{"Name"}, map[string]any{"name": fmt.Sprintf("AS-%d", i)})
		g.MustCreateRelationship(as.ID, name.ID, "NAME", nil)
	}
	return g
}

func TestPreparedQueryExecuteWithParams(t *testing.T) {
	g := asGraph(t, 50)
	pq, err := Prepare("MATCH (a:AS) WHERE a.asn = $n RETURN a.asn")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1001, 1025, 1050} {
		res, err := pq.Execute(g, map[string]any{"n": n}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		v, ok := res.Value()
		if !ok || v != int64(n) {
			t.Fatalf("asn %d: got %v (ok=%v)", n, v, ok)
		}
	}
	if got := pq.Replans(); got != 0 {
		t.Fatalf("stable graph should never replan, got %d", got)
	}
}

func TestPrepareSyntaxError(t *testing.T) {
	_, err := Prepare("MATCH (a:AS RETURN a")
	if err == nil {
		t.Fatal("expected syntax error")
	}
	if _, ok := err.(*SyntaxError); !ok {
		t.Fatalf("expected *SyntaxError, got %T", err)
	}
}

func TestWhereEqualityUsesIndexAccessPath(t *testing.T) {
	g := asGraph(t, 10)
	for _, src := range []string{
		"MATCH (a:AS) WHERE a.asn = $n RETURN a.asn",
		"MATCH (a:AS) WHERE $n = a.asn RETURN a.asn",
		"MATCH (a:AS) WHERE a.asn = 1003 AND a.asn > 0 RETURN a.asn",
	} {
		plan, err := Explain(g, src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !strings.Contains(plan, "property index (AS, asn) via WHERE a.asn =") {
			t.Fatalf("%s: plan does not report WHERE-driven index access:\n%s", src, plan)
		}
	}
	// Row-dependent right-hand sides must not claim the index.
	plan, err := Explain(g, "MATCH (a:AS), (b:AS) WHERE a.asn = b.asn RETURN a.asn", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "via WHERE") {
		t.Fatalf("row-dependent predicate must not be hoisted:\n%s", plan)
	}
	// Disabled indexes fall back to the label scan in the report too.
	plan, err = Explain(g, "MATCH (a:AS) WHERE a.asn = 1003 RETURN a.asn", Options{DisableIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "label scan :AS") {
		t.Fatalf("DisableIndexes must fall back to label scan:\n%s", plan)
	}
}

func TestPreparedDescribeMatchesExplain(t *testing.T) {
	g := asGraph(t, 5)
	src := "MATCH (a:AS) WHERE a.asn = 1002 RETURN a.asn"
	pq, err := Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	fromExplain, err := Explain(g, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := pq.Describe(g, Options{}); got != fromExplain {
		t.Fatalf("Describe diverged from Explain:\n--- Describe\n%s--- Explain\n%s", got, fromExplain)
	}
}

func TestPlanInvalidationOnIndexCreation(t *testing.T) {
	g := graph.New()
	for i := 1; i <= 20; i++ {
		g.MustCreateNode([]string{"T"}, map[string]any{"k": i})
	}
	pq, err := Prepare("MATCH (n:T) WHERE n.k = $k RETURN n.k")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.Execute(g, map[string]any{"k": 7}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Value(); v != int64(7) {
		t.Fatalf("pre-index result: %v", v)
	}
	if !strings.Contains(pq.Describe(g, Options{}), "label scan :T") {
		t.Fatal("expected label scan before index exists")
	}

	g.CreateIndex("T", "k")

	res, err = pq.Execute(g, map[string]any{"k": 7}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Value(); v != int64(7) {
		t.Fatalf("post-index result: %v", v)
	}
	if pq.Replans() == 0 {
		t.Fatal("index creation must invalidate the cached plan")
	}
	if !strings.Contains(pq.Describe(g, Options{}), "property index (T, k) via WHERE n.k = $k") {
		t.Fatalf("replanned query should use the new index:\n%s", pq.Describe(g, Options{}))
	}
}

func TestPlanInvalidationOnDataWrite(t *testing.T) {
	g := asGraph(t, 5)
	pq, err := Prepare("MATCH (a:AS) WHERE a.asn = $n RETURN a.asn")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Execute(g, map[string]any{"n": 1001}, Options{}); err != nil {
		t.Fatal(err)
	}
	// A write through the Cypher engine bumps the graph version...
	create, err := Prepare("CREATE (a:AS {asn: 9999})")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := create.Execute(g, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	// ...and the stale plan is rebuilt on the next execution, which
	// must see the new node.
	res, err := pq.Execute(g, map[string]any{"n": 9999}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Value(); v != int64(9999) {
		t.Fatalf("replanned query missed the new node: %v", v)
	}
	if pq.Replans() == 0 {
		t.Fatal("graph write must invalidate the cached plan")
	}
}

func TestPreparedQueryConcurrentExecute(t *testing.T) {
	g := asGraph(t, 100)
	pq, err := Prepare("MATCH (a:AS) WHERE a.asn = $n RETURN a.asn")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := 1001 + (w*50+i)%100
				res, err := pq.Execute(g, map[string]any{"n": n}, Options{})
				if err != nil {
					errs <- err
					return
				}
				if v, _ := res.Value(); v != int64(n) {
					errs <- fmt.Errorf("worker %d: want %d got %v", w, n, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestIndexScanEquivalence cross-checks indexed execution against
// forced label scans over a randomized query batch: the chosen access
// path must never change results.
func TestIndexScanEquivalence(t *testing.T) {
	g := asGraph(t, 60)
	g.CreateIndex("Name", "name")
	queries := []struct {
		src    string
		params map[string]any
	}{
		{"MATCH (a:AS) WHERE a.asn = $n RETURN a.asn", map[string]any{"n": 1030}},
		{"MATCH (a:AS) WHERE a.asn = $n RETURN a.asn", map[string]any{"n": -1}},
		{"MATCH (a:AS {asn: $n})-[:NAME]->(m:Name) RETURN m.name", map[string]any{"n": 1007}},
		{"MATCH (a:AS)-[:NAME]->(m:Name) WHERE a.asn = 1011 RETURN m.name", nil},
		{"MATCH (a:AS)-[:NAME]->(m:Name) WHERE m.name = 'AS-9' RETURN a.asn", nil},
		{"MATCH (a:AS) WHERE a.asn = 1000 + 5 RETURN a.asn", nil},
		{"MATCH (a:AS) WHERE a.asn = 1030.0 RETURN a.asn", nil}, // cross-type numeric equality
		{"MATCH (a:AS) WHERE a.asn = 1002 OR a.asn = 1003 RETURN a.asn ORDER BY a.asn", nil},
		{"MATCH (a:AS) WHERE a.asn = $n AND a.asn <> 0 RETURN count(a)", map[string]any{"n": 1044}},
		{"OPTIONAL MATCH (a:AS) WHERE a.asn = $n RETURN a.asn", map[string]any{"n": 123456}},
	}
	for _, q := range queries {
		indexed, err := ExecuteWith(g, q.src, q.params, Options{})
		if err != nil {
			t.Fatalf("%s (indexed): %v", q.src, err)
		}
		scanned, err := ExecuteWith(g, q.src, q.params, Options{DisableIndexes: true})
		if err != nil {
			t.Fatalf("%s (scan): %v", q.src, err)
		}
		if !reflect.DeepEqual(indexed.Rows, scanned.Rows) {
			t.Fatalf("%s: indexed %v != scanned %v", q.src, indexed.Rows, scanned.Rows)
		}
	}
}

// TestExplainNamesProbedIndex: with two indexed inline properties on
// one label, the anchor is looked up by the first in key order, every
// time, and EXPLAIN names that index.
func TestExplainNamesProbedIndex(t *testing.T) {
	g := graph.New()
	for i := 0; i < 4; i++ {
		g.MustCreateNode([]string{"L"}, map[string]any{"a": int64(i), "b": int64(i + 1)})
	}
	g.CreateIndex("L", "b")
	g.CreateIndex("L", "a")
	src := "MATCH (n:L {b: 2, a: 1}) RETURN n.a"
	for i := 0; i < 50; i++ {
		plan, err := Explain(g, src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "property index (L, a)") || strings.Contains(plan, "property index (L, b)") {
			t.Fatalf("run %d: plan does not name the (L, a) index:\n%s", i, plan)
		}
	}
	res, err := Execute(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(1) {
		t.Fatalf("rows = %v, want [[1]]", res.Rows)
	}
}
