package cypher

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"chatiyp/internal/graph"
)

// Streaming/materialized equivalence: every query must produce
// bit-identical columns, rows (including order) and stats on the
// streaming operator pipeline and on the materializing reference
// executor (executeReference).

// streamEquivCorpus is the conformance corpus both executors run: a
// broad sweep of read shapes, with deliberate weight on the pipeline's
// new machinery — LIMIT pushdown, top-k ORDER BY, SKIP interplay,
// DISTINCT severing, UNION dedup, OPTIONAL MATCH fallbacks.
var streamEquivCorpus = []string{
	// Plain scans and projections.
	"MATCH (a:AS) RETURN a.asn",
	"MATCH (a:AS) RETURN a.asn, a.name",
	"MATCH (n) RETURN n.name ORDER BY n.name",
	"MATCH (a:AS) RETURN *",
	"RETURN 1 + 2 AS x",
	// LIMIT pushdown shapes.
	"MATCH (a:AS) RETURN a.asn LIMIT 2",
	"MATCH (a:AS) RETURN a.asn LIMIT 0",
	"MATCH (a:AS) RETURN a.asn SKIP 1 LIMIT 1",
	"MATCH (a:AS) RETURN a.asn SKIP 10",
	"MATCH (a:AS) RETURN a.asn SKIP 1",
	"MATCH (n) RETURN n LIMIT 3",
	// ORDER BY, top-k, ties.
	"MATCH (a:AS) RETURN a.asn ORDER BY a.asn",
	"MATCH (a:AS) RETURN a.asn ORDER BY a.asn DESC",
	"MATCH (a:AS) RETURN a.asn ORDER BY a.asn LIMIT 2",
	"MATCH (a:AS) RETURN a.asn ORDER BY a.asn DESC LIMIT 2",
	"MATCH (a:AS) RETURN a.asn ORDER BY a.asn SKIP 1 LIMIT 1",
	"MATCH (a:AS) RETURN a.name ORDER BY a.asn LIMIT 10",
	"MATCH (p:Prefix) RETURN p.prefix ORDER BY p.af, p.prefix DESC LIMIT 2",
	// DISTINCT and its ORDER BY scoping.
	"MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN DISTINCT c.country_code ORDER BY c.country_code",
	"MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN DISTINCT c.country_code LIMIT 1",
	"MATCH (p:Prefix) RETURN DISTINCT p.af",
	// Aggregation.
	"MATCH (a:AS) RETURN count(a)",
	"MATCH (a:AS)-[:ORIGINATE]->(p) RETURN a.name, count(p) ORDER BY count(p) DESC",
	"MATCH (a:AS)-[:ORIGINATE]->(p) RETURN a.name, count(p) ORDER BY count(p) DESC LIMIT 1",
	"MATCH (a:AS) RETURN sum(a.asn), min(a.asn), max(a.asn), avg(a.asn)",
	"MATCH (x:NoSuchLabel) RETURN count(*)",
	"MATCH (a:AS) RETURN collect(a.asn) AS asns",
	"MATCH (a:AS)-[r:ORIGINATE]->() RETURN a.name, sum(r.count) ORDER BY a.name",
	// WITH pipelines.
	"MATCH (a:AS) WITH a ORDER BY a.asn DESC LIMIT 1 MATCH (a)-[:ORIGINATE]->(p) RETURN p.prefix ORDER BY p.prefix",
	"MATCH (a:AS) WITH a.asn AS n WHERE n > 3000 RETURN n ORDER BY n",
	"MATCH (a:AS)-[r:ORIGINATE]->() WITH a, count(r) AS deg RETURN sum(deg), count(*)",
	"MATCH (a:AS) WITH collect(a.asn) AS xs UNWIND xs AS x RETURN count(x)",
	"MATCH (a:AS) WITH a LIMIT 2 RETURN a.asn ORDER BY a.asn",
	// UNWIND.
	"UNWIND [3, 1, 2] AS x RETURN x ORDER BY x",
	"UNWIND [3, 1, 2] AS x RETURN x LIMIT 2",
	"UNWIND [[1,2],[3]] AS xs UNWIND xs AS x RETURN x",
	"UNWIND [] AS x RETURN x",
	"UNWIND null AS x RETURN x",
	// OPTIONAL MATCH.
	"MATCH (a:AS) OPTIONAL MATCH (a)-[r:ORIGINATE]->() RETURN a.asn, count(r) ORDER BY a.asn",
	"MATCH (a:AS) OPTIONAL MATCH (a)-[:NO_SUCH]->(b) RETURN a.asn, b ORDER BY a.asn",
	"OPTIONAL MATCH (x:NoSuchLabel) RETURN x",
	// Relationship traversals, var-length, paths.
	"MATCH (a:AS {asn: 2497})-[:ORIGINATE]->(p) RETURN p.prefix ORDER BY p.prefix",
	"MATCH (a:AS {asn: 2497})-[:PEERS_WITH]-(b:AS) RETURN b.name",
	"MATCH (a:AS)-[:COUNTRY]->(c {country_code: 'JP'}) RETURN a.asn ORDER BY a.asn",
	"MATCH (a:AS {asn: 64500})-[:DEPENDS_ON*1..2]->(b:AS) RETURN b.asn ORDER BY b.asn",
	"MATCH p = (:AS {asn: 2497})-[:MEMBER_OF]->(:IXP) RETURN length(p)",
	"MATCH (a:AS)-[:MEMBER_OF]->(x:IXP)<-[:MEMBER_OF]-(b:AS) WHERE a.asn < b.asn RETURN a.asn, b.asn",
	// Multiple patterns (cross product with join predicate).
	"MATCH (a:AS), (b:AS) WHERE a.asn < b.asn RETURN a.asn, b.asn ORDER BY a.asn, b.asn",
	"MATCH (a:AS), (b:AS) WHERE a.asn < b.asn RETURN a.asn, b.asn LIMIT 3",
	// WHERE-driven index hints.
	"MATCH (a:AS) WHERE a.asn = 2497 RETURN a.name",
	"MATCH (a:AS) WHERE a.asn = 2497 AND a.name = 'IIJ' RETURN a.name",
	// UNION / UNION ALL / DISTINCT interplay.
	"MATCH (a:AS {asn: 2497}) RETURN a.name AS name UNION MATCH (a:AS {asn: 2497}) RETURN a.name AS name",
	"MATCH (a:AS {asn: 2497}) RETURN a.name AS name UNION ALL MATCH (a:AS {asn: 2497}) RETURN a.name AS name",
	"RETURN 1 AS n UNION RETURN 2 AS n UNION RETURN 1 AS n",
	"RETURN 1 AS n UNION ALL RETURN 1 AS n UNION RETURN 1 AS n",
	"RETURN 1 AS n UNION RETURN 1 AS n UNION ALL RETURN 1 AS n",
	"MATCH (a:AS) RETURN DISTINCT a.name AS n UNION ALL MATCH (a:AS) RETURN a.name AS n",
	"MATCH (a:AS) RETURN a.name AS n ORDER BY n LIMIT 2 UNION MATCH (c:Country) RETURN c.name AS n",
	// Expression-only queries.
	"RETURN CASE WHEN 1 > 2 THEN 'a' ELSE 'b' END AS v",
	"RETURN [x IN range(1, 5) WHERE x % 2 = 0] AS evens",
}

// runBoth executes src on both executors and fails the test unless the
// outcomes are identical.
func runBoth(t *testing.T, g *graph.Graph, src string, params map[string]any, opts Options) (*Result, *Result) {
	t.Helper()
	sres, serr := ExecuteWith(g, src, params, opts)
	mres, merr := executeReference(context.Background(), g, src, params, opts)
	if (serr == nil) != (merr == nil) {
		t.Fatalf("%s: error divergence: streaming=%v materialized=%v", src, serr, merr)
	}
	if serr != nil {
		return nil, nil
	}
	if !reflect.DeepEqual(sres.Columns, mres.Columns) {
		t.Fatalf("%s: columns diverge: %v vs %v", src, sres.Columns, mres.Columns)
	}
	if !reflect.DeepEqual(sres.Rows, mres.Rows) {
		t.Fatalf("%s: rows diverge:\nstreaming:    %v\nmaterialized: %v", src, sres.Rows, mres.Rows)
	}
	if sres.Stats != mres.Stats {
		t.Fatalf("%s: stats diverge: %+v vs %+v", src, sres.Stats, mres.Stats)
	}
	return sres, mres
}

func TestStreamingEquivalenceCorpus(t *testing.T) {
	g := fixture(t)
	for _, src := range streamEquivCorpus {
		runBoth(t, g, src, nil, Options{})
	}
}

func TestStreamingEquivalenceCorpusNoIndexes(t *testing.T) {
	g := fixture(t)
	for _, src := range streamEquivCorpus {
		runBoth(t, g, src, nil, Options{DisableIndexes: true})
	}
}

func TestStreamingEquivalenceChainGraph(t *testing.T) {
	g := chainGraph(t, 12)
	for _, src := range []string{
		"MATCH (n:N) RETURN n.i LIMIT 4",
		"MATCH (n:N) RETURN n.i ORDER BY n.i DESC LIMIT 3",
		"MATCH (a:N {i: 1})-[:NEXT*1..4]->(b) RETURN b.i ORDER BY b.i",
		"MATCH (a:N {i: 1})-[:NEXT*1..4]->(b) RETURN b.i LIMIT 2",
		"MATCH (a:N)-[:NEXT]->(b) RETURN a.i, b.i ORDER BY a.i SKIP 3 LIMIT 4",
		"MATCH (a:N)-[:NEXT]-(b)-[:NEXT]-(c) RETURN DISTINCT c.i ORDER BY c.i",
		"MATCH (n:N) WHERE n.i % 2 = 0 RETURN n.i ORDER BY n.i LIMIT 3",
	} {
		runBoth(t, g, src, nil, Options{})
	}
}

// TestStreamingEquivalenceRandomized cross-checks the two executors on
// random graphs with duplicate-heavy properties — the worst case for
// top-k tie-breaking and DISTINCT.
func TestStreamingEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	trials := 8
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		g := graph.New()
		n := 8 + rng.Intn(24)
		var nodes []*graph.Node
		for i := 0; i < n; i++ {
			nodes = append(nodes, g.MustCreateNode([]string{"V"}, map[string]any{
				"x": rng.Intn(5), // few distinct values => many ties
				"y": rng.Intn(100),
				"i": i,
			}))
		}
		for i := 0; i < n*2; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.MustCreateRelationship(nodes[a].ID, nodes[b].ID, "E", map[string]any{"w": rng.Intn(10)})
			}
		}
		limit := 1 + rng.Intn(6)
		skip := rng.Intn(3)
		for _, src := range []string{
			fmt.Sprintf("MATCH (v:V) RETURN v.i ORDER BY v.x LIMIT %d", limit),
			fmt.Sprintf("MATCH (v:V) RETURN v.i ORDER BY v.x DESC, v.y LIMIT %d", limit),
			fmt.Sprintf("MATCH (v:V) RETURN v.i ORDER BY v.x SKIP %d LIMIT %d", skip, limit),
			fmt.Sprintf("MATCH (v:V) RETURN v.x LIMIT %d", limit),
			fmt.Sprintf("MATCH (v:V) RETURN DISTINCT v.x ORDER BY v.x LIMIT %d", limit),
			fmt.Sprintf("MATCH (a:V)-[e:E]->(b:V) RETURN a.i, b.i ORDER BY e.w, a.i LIMIT %d", limit),
			fmt.Sprintf("MATCH (v:V) RETURN v.x, count(*) ORDER BY count(*) DESC, v.x LIMIT %d", limit),
			"MATCH (v:V) RETURN v.x, collect(v.i) ORDER BY v.x",
		} {
			runBoth(t, g, src, nil, Options{})
		}
	}
}

// TestStreamingTopKTieOrdering pins the top-k heap's tie-breaking to
// the stable sort: rows with equal keys must surface in arrival order,
// cut at exactly LIMIT.
func TestStreamingTopKTieOrdering(t *testing.T) {
	g := graph.New()
	// 9 nodes, keys 0,1,2,0,1,2,... — arrival order is id order.
	for i := 0; i < 9; i++ {
		g.MustCreateNode([]string{"T"}, map[string]any{"k": i % 3, "id": i})
	}
	for limit := 1; limit <= 9; limit++ {
		src := fmt.Sprintf("MATCH (t:T) RETURN t.id ORDER BY t.k LIMIT %d", limit)
		sres, _ := runBoth(t, g, src, nil, Options{})
		if len(sres.Rows) != limit {
			t.Fatalf("LIMIT %d returned %d rows", limit, len(sres.Rows))
		}
	}
	// Explicit spot check: ties on k=0 are ids 0,3,6 in that order.
	res, _ := runBoth(t, g, "MATCH (t:T) RETURN t.id ORDER BY t.k LIMIT 2", nil, Options{})
	if res.Rows[0][0] != int64(0) || res.Rows[1][0] != int64(3) {
		t.Fatalf("tie order = %v, want [0] [3]", res.Rows)
	}
}

// errorParityCorpus holds queries every executor must reject.
var errorParityCorpus = []string{
	"MATCH (a:AS) RETURN a.asn LIMIT -1",
	"MATCH (a:AS) RETURN a.asn SKIP -2",
	"MATCH (a:AS) RETURN a.asn ORDER BY a.asn LIMIT 'x'",
	"MATCH (a:AS) RETURN nope(a)",
	"RETURN $missing",
	"MATCH (a:AS) RETURN a.name UNION MATCH (a:AS) RETURN a.name, a.asn",
	"MATCH (a:AS) RETURN a.name AS x UNION MATCH (a:AS) RETURN a.name AS y",
}

func TestStreamingErrorParity(t *testing.T) {
	g := fixture(t)
	for _, src := range errorParityCorpus {
		runBoth(t, g, src, nil, Options{}) // asserts both paths error
	}
}

func TestRowLimitTruncation(t *testing.T) {
	g := fixture(t) // 3 AS nodes
	for _, exec := range []execFunc{ExecuteWithContext, executeReference} {
		ctx := context.Background()
		res, err := exec(ctx, g, "MATCH (a:AS) RETURN a.asn ORDER BY a.asn", nil, Options{RowLimit: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 || !res.Truncated {
			t.Fatalf("rows=%d truncated=%v, want 2/true", len(res.Rows), res.Truncated)
		}
		// Cap at or above the natural size must not set the flag.
		res, err = exec(ctx, g, "MATCH (a:AS) RETURN a.asn", nil, Options{RowLimit: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 3 || res.Truncated {
			t.Fatalf("rows=%d truncated=%v, want 3/false", len(res.Rows), res.Truncated)
		}
	}
	// The truncated prefix matches between the executors.
	sres, err := ExecuteWith(g, "MATCH (a:AS) RETURN a.asn ORDER BY a.asn", nil, Options{RowLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	mres, err := executeReference(context.Background(), g, "MATCH (a:AS) RETURN a.asn ORDER BY a.asn", nil, Options{RowLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sres.Rows, mres.Rows) {
		t.Fatalf("truncated prefixes diverge: %v vs %v", sres.Rows, mres.Rows)
	}
}

// TestStreamingAvoidsTooManyRows is the headline semantic improvement:
// a LIMIT query over an intermediate that would overflow the
// reference executor's MaxRows succeeds on the pipeline because
// the pushed-down limit stops the scan first.
func TestStreamingAvoidsTooManyRows(t *testing.T) {
	g := chainGraph(t, 300)
	src := "MATCH (a:N)-[:NEXT]->(b) RETURN a.i LIMIT 3" // 299 intermediate rows
	opts := Options{MaxRows: 100}
	if _, err := executeReference(context.Background(), g, src, nil, Options{MaxRows: 100}); err == nil {
		t.Fatal("reference executor should overflow MaxRows")
	}
	res, err := ExecuteWith(g, src, nil, opts)
	if err != nil {
		t.Fatalf("streaming executor should not overflow: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
}

func TestStreamingCounters(t *testing.T) {
	g := fixture(t)
	rows0, exits0 := StreamStats()
	if _, err := Execute(g, "MATCH (a:AS) RETURN a.asn LIMIT 2", nil); err != nil {
		t.Fatal(err)
	}
	rows1, exits1 := StreamStats()
	if rows1-rows0 != 2 {
		t.Errorf("rows_streamed delta = %d, want 2", rows1-rows0)
	}
	if exits1-exits0 != 1 {
		t.Errorf("limit_early_exit delta = %d, want 1", exits1-exits0)
	}
	// An unlimited full scan streams rows but records no early exit.
	if _, err := Execute(g, "MATCH (a:AS) RETURN a.asn", nil); err != nil {
		t.Fatal(err)
	}
	rows2, exits2 := StreamStats()
	if rows2-rows1 != 3 {
		t.Errorf("rows_streamed delta = %d, want 3", rows2-rows1)
	}
	if exits2 != exits1 {
		t.Errorf("limit_early_exit moved on an unlimited query")
	}
	// A LIMIT exactly matching the natural row count exhausts the
	// source and must not count as an early exit.
	if _, err := Execute(g, "MATCH (a:AS) RETURN a.asn LIMIT 3", nil); err != nil {
		t.Fatal(err)
	}
	if _, exits3 := StreamStats(); exits3 != exits2 {
		t.Errorf("limit_early_exit moved when LIMIT equaled the row count")
	}
}

func TestExplainShowsPushdown(t *testing.T) {
	g := fixture(t)
	plan, err := Explain(g, "MATCH (a:AS) RETURN a.asn LIMIT 5", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "pushed below projection") {
		t.Errorf("pushdown not reported:\n%s", plan)
	}
	for _, blocked := range []string{
		"MATCH (a:AS) RETURN DISTINCT a.asn LIMIT 5",
		"MATCH (a:AS) RETURN count(a) LIMIT 5",
		"MATCH (a:AS) RETURN a.asn ORDER BY a.asn LIMIT 5",
	} {
		plan, err := Explain(g, blocked, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plan, "pushed below projection") {
			t.Errorf("%s: pushdown must be blocked:\n%s", blocked, plan)
		}
	}
	plan, err = Explain(g, "MATCH (a:AS) RETURN a.asn ORDER BY a.asn LIMIT 5", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "top-k sort") {
		t.Errorf("ORDER BY ... LIMIT should plan a top-k sort:\n%s", plan)
	}
}

// TestStreamingPreparedQueries exercises the prepared-query path: the
// stage pipelines live on the cached plan and must replan with it.
func TestStreamingPreparedQueries(t *testing.T) {
	g := fixture(t)
	pq, err := Prepare("MATCH (a:AS) WHERE a.asn = $n RETURN a.name LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.Execute(g, map[string]any{"n": 2497}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Value(); !ok || v != "IIJ" {
		t.Fatalf("prepared streaming result = %v", res.Rows)
	}
	// A write invalidates the plan; the rebuilt pipeline must see the
	// new data.
	if _, err := Execute(g, "CREATE (:AS {asn: 99, name: 'NewAS'})", nil); err != nil {
		t.Fatal(err)
	}
	res, err = pq.Execute(g, map[string]any{"n": 99}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Value(); !ok || v != "NewAS" {
		t.Fatalf("replanned streaming result = %v", res.Rows)
	}
}

// writeCase is one write-equivalence scenario: steps run in order on
// the same graph, each through both executors.
type writeCase struct {
	steps  []string
	params map[string]any
	opts   Options
}

// runBothWrites runs every step of wc on the pipeline against one fresh
// fixture and on the reference executor against another, and fails
// unless each step agrees on error-ness, columns, rows, truncation and
// stats, and the two graphs dump to the same JSON lines afterwards.
func runBothWrites(t *testing.T, wc writeCase) {
	t.Helper()
	gs, gm := fixture(t), fixture(t)
	for _, src := range wc.steps {
		sres, serr := ExecuteWith(gs, src, wc.params, wc.opts)
		mres, merr := executeReference(context.Background(), gm, src, wc.params, wc.opts)
		if (serr == nil) != (merr == nil) {
			t.Fatalf("%s: error divergence: streaming=%v reference=%v", src, serr, merr)
		}
		if serr == nil {
			if !reflect.DeepEqual(sres.Columns, mres.Columns) {
				t.Fatalf("%s: columns diverge: %v vs %v", src, sres.Columns, mres.Columns)
			}
			if !reflect.DeepEqual(sres.Rows, mres.Rows) {
				t.Fatalf("%s: rows diverge:\nstreaming: %v\nreference: %v", src, sres.Rows, mres.Rows)
			}
			if sres.Truncated != mres.Truncated {
				t.Fatalf("%s: truncated diverges: %v vs %v", src, sres.Truncated, mres.Truncated)
			}
			if sres.Stats != mres.Stats {
				t.Fatalf("%s: stats diverge: %+v vs %+v", src, sres.Stats, mres.Stats)
			}
		}
		var ds, dm strings.Builder
		if err := gs.WriteJSONLines(&ds); err != nil {
			t.Fatal(err)
		}
		if err := gm.WriteJSONLines(&dm); err != nil {
			t.Fatal(err)
		}
		if ds.String() != dm.String() {
			t.Fatalf("%s: graphs diverge:\nstreaming:\n%s\nreference:\n%s", src, ds.String(), dm.String())
		}
	}
}

// TestStreamingEquivalenceWrites holds the pipeline's write barriers to
// the reference executor's per-clause semantics: a clause cannot read
// its own output, later rows see earlier rows' writes, and later
// clauses see all of them.
func TestStreamingEquivalenceWrites(t *testing.T) {
	for _, wc := range []writeCase{
		{steps: []string{"MATCH (a:AS) CREATE (:AS {asn: a.asn + 1})"}},
		{steps: []string{"MATCH (a:AS) CREATE (:AS {asn: a.asn + 1}) MATCH (c:AS) RETURN count(c)"}},
		{steps: []string{"MATCH (a:AS) CREATE (b:AS {asn: a.asn + 1}) RETURN a.asn, b.asn ORDER BY b.asn"}},
		{steps: []string{
			"UNWIND [1, 1, 2] AS x MERGE (n:M {k: x}) ON CREATE SET n.c = x ON MATCH SET n.m = x RETURN n.k, n.c, n.m",
			"MATCH (n:M) RETURN n.k, n.c, n.m ORDER BY n.k",
		}},
		{steps: []string{"MATCH (a:AS {asn: 2497}), (b:AS {asn: 64500}) MERGE (a)-[r:PEERS_WITH]->(b) RETURN type(r)"}},
		{steps: []string{"CREATE (a:X {v: 1}) WITH a MERGE (a)-[:R]->(b:X {v: 2}) RETURN b.v"}},
		{steps: []string{
			"MATCH (a:AS) WHERE a.asn > 3000 SET a.big = true, a:Big RETURN a.asn ORDER BY a.asn",
			"MATCH (b:Big) RETURN b.asn, b.big ORDER BY b.asn",
		}},
		{steps: []string{"MATCH (a:AS {asn: 2497}) SET a.name = 'x' WITH a MATCH (b:AS) RETURN b.name ORDER BY b.name"}},
		{steps: []string{"MATCH (a:AS) WITH a WHERE a.asn < 3000 SET a.small = true"}},
		{steps: []string{
			"MATCH (a:AS {asn: 2497}) REMOVE a.name, a:AS WITH a MATCH (b:AS) RETURN count(b)",
			"MATCH (n) WHERE n.asn = 2497 RETURN labels(n), n.name",
		}},
		{steps: []string{
			"MATCH (:AS)-[r:ORIGINATE]->(p:Prefix {prefix: '203.0.113.0/24'}) DELETE r",
			"MATCH (:AS)-[o:ORIGINATE]->() RETURN count(o)",
		}},
		{steps: []string{"MATCH (a:AS {asn: 64500}) DETACH DELETE a WITH count(*) AS n MATCH (b:AS) RETURN b.asn ORDER BY b.asn"}},
		{steps: []string{"MATCH (a:AS {asn: 2497}) DELETE a"}}, // has relationships: errors
		{steps: []string{"MATCH (a:AS) WITH a ORDER BY a.asn DESC LIMIT 2 CREATE (:Top {asn: a.asn}) RETURN a.asn"}},
		{steps: []string{"OPTIONAL MATCH (z:Nope) SET z.x = 1 RETURN z"}},
		{steps: []string{"CREATE (a:X) RETURN 1 AS n UNION ALL CREATE (b:Y) RETURN 2 AS n"}},
		{steps: []string{"UNWIND [1, 2] AS x CREATE (:U {x: x}) RETURN 1 AS n UNION MATCH (u:U) RETURN count(u) AS n"}},
		// A runtime error on the second row keeps the first row's write.
		{steps: []string{"UNWIND [1, 0] AS x CREATE (:D {v: 1 / x})", "MATCH (d:D) RETURN d.v"}},
		// The two write shapes of the cypher_rw workload.
		{steps: []string{
			"MATCH (a:AS {asn:$x}) CREATE (n:BenchNote {id:$i, text:$t})-[:NOTED]->(a)",
			"MATCH (n:BenchNote {id:$i}) SET n.text = $t",
			"MATCH (n:BenchNote) RETURN count(n)",
		}, params: map[string]any{"x": 2497, "i": 7, "t": "note"}},
	} {
		runBothWrites(t, wc)
	}
}

// TestStreamingEquivalenceRowLimitWrites: once Options.RowLimit has cut
// the result, a write query still runs every later part, so the cap
// never skips a write.
func TestStreamingEquivalenceRowLimitWrites(t *testing.T) {
	for _, src := range []string{
		"CREATE (:X) RETURN 1 AS n UNION ALL RETURN 5 AS n UNION ALL CREATE (:Y) RETURN 2 AS n",
		"UNWIND [1,2,3] AS x RETURN x AS n UNION ALL CREATE (:Y) RETURN 2 AS n",
	} {
		runBothWrites(t, writeCase{steps: []string{src}, opts: Options{RowLimit: 1}})
		g := fixture(t)
		before := g.NodeCount()
		st, err := ExecuteStreamContext(context.Background(), g, src, nil, Options{RowLimit: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rows := drainStream(t, st); len(rows) != 1 || !st.Truncated() {
			t.Fatalf("%s: stream rows=%v truncated=%v, want 1 row, truncated", src, rows, st.Truncated())
		}
		if created := g.NodeCount() - before; created != st.Stats().NodesCreated || created == 0 {
			t.Fatalf("%s: stream created %d nodes, stats say %+v", src, created, st.Stats())
		}
	}
}

// TestPlanErrorWritesNothing: a query the planner rejects fails before
// any stage runs, so neither entry point writes, and the graph's write
// observer sees nothing.
func TestPlanErrorWritesNothing(t *testing.T) {
	for _, src := range []string{
		"CREATE (:X) RETURN *",
		"CREATE (:X) RETURN 1 AS a UNION CREATE (:Y) RETURN 2 AS b",
	} {
		g := fixture(t)
		observed := 0
		g.SetWriteObserver(func(graph.Mutation) { observed++ })
		before := g.NodeCount()
		if _, err := Execute(g, src, nil); err == nil {
			t.Fatalf("%s: Execute accepted it", src)
		}
		if _, err := ExecuteStream(g, src, nil); err == nil {
			t.Fatalf("%s: ExecuteStream accepted it", src)
		}
		if g.NodeCount() != before || observed != 0 {
			t.Fatalf("%s: nodes %d -> %d, %d mutations observed; want no writes", src, before, g.NodeCount(), observed)
		}
	}
}
