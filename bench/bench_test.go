package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"chatiyp"
	"chatiyp/internal/api"
	"chatiyp/internal/cypher"
	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
	"chatiyp/internal/server"
)

// smallFixture is shared by the tests: iyp.SmallConfig() builds in well
// under a second, but not for free.
var smallFixture = sync.OnceValues(func() (*fixture, error) {
	return buildFixture(iyp.SmallConfig(), 10)
})

func mustFixture(t *testing.T) *fixture {
	t.Helper()
	fx, err := smallFixture()
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func mustOps(t *testing.T, workload string, fx *fixture, seed int64, n int) *opList {
	t.Helper()
	l, err := buildOps(workload, fx, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestOpListsRepeatForEqualSeeds(t *testing.T) {
	fx := mustFixture(t)
	for _, w := range workloadNames {
		encode := func(seed int64) []byte {
			raw, err := json.Marshal(mustOps(t, w, fx, seed, 100))
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		if !bytes.Equal(encode(1), encode(1)) {
			t.Errorf("%s: two lists for seed 1 differ", w)
		}
		if bytes.Equal(encode(1), encode(2)) {
			t.Errorf("%s: lists for seeds 1 and 2 are the same", w)
		}
	}
}

func TestCypherSharesAreOneInTen(t *testing.T) {
	fx := mustFixture(t)
	count := func(ops []op) map[string]int {
		c := map[string]int{}
		for _, p := range ops {
			c[p.Class]++
		}
		return c
	}
	for _, n := range []int{50, 200, 1230} {
		read := count(mustOps(t, wlCypherRead, fx, 3, n).Measured)
		if read[classHeavy] != n/10 || read[classWrite] != 0 || read[classLight] != n-n/10 {
			t.Errorf("cypher_read n=%d: classes %v", n, read)
		}
		rw := count(mustOps(t, wlCypherRW, fx, 3, n).Measured)
		if rw[classHeavy] != n/10 || rw[classWrite] != n/10 || rw[classLight] != n-2*(n/10) {
			t.Errorf("cypher_rw n=%d: classes %v", n, rw)
		}
	}
}

// A SET must only name a note an earlier op created.
func TestSetFollowsItsCreate(t *testing.T) {
	l := mustOps(t, wlCypherRW, mustFixture(t), 5, 600)
	all := append(append([]op(nil), l.Warmup...), l.Measured...)
	createdAt := map[int64]int{}
	sets := 0
	for i, p := range all {
		switch p.Text {
		case createNoteQuery:
			createdAt[p.Params["i"].(int64)] = i
		case setNoteQuery:
			sets++
			at, ok := createdAt[p.Params["i"].(int64)]
			if !ok || at >= i {
				t.Fatalf("op %d sets note %v created at %d (known: %v)", i, p.Params["i"], at, ok)
			}
		}
	}
	if sets == 0 || l.creates() != len(createdAt) {
		t.Fatalf("sets=%d creates()=%d distinct creates=%d", sets, l.creates(), len(createdAt))
	}
}

func TestAskListsHoldTheSameWorkForEverySeed(t *testing.T) {
	fx := mustFixture(t)
	for _, w := range []string{wlAskCold, wlAskWarm} {
		tally := func(seed int64) map[string]int {
			c := map[string]int{}
			for _, p := range mustOps(t, w, fx, seed, 120).Measured {
				c[p.Text]++
			}
			return c
		}
		a, b := tally(1), tally(2)
		if len(a) != len(b) {
			t.Fatalf("%s: %d distinct questions for seed 1, %d for seed 2", w, len(a), len(b))
		}
		for q, n := range a {
			if b[q] != n {
				t.Fatalf("%s: %q asked %d times for seed 1, %d for seed 2", w, q, n, b[q])
			}
		}
		if w == wlAskCold && len(a) != 120 {
			t.Errorf("ask_cold: %d distinct questions in 120 ops", len(a))
		}
	}
}

func TestZipfCounts(t *testing.T) {
	c := zipfCounts(10_000, hotQuestions, zipfExponent)
	total := 0
	for i, n := range c {
		total += n
		if i > 0 && n > c[i-1] {
			t.Fatalf("rank %d drawn %d times, rank %d only %d", i+1, n, i, c[i-1])
		}
	}
	if total != 10_000 {
		t.Fatalf("counts add up to %d", total)
	}
	if share := float64(c[0]) / 10_000; share < 0.2 || share > 0.3 {
		t.Fatalf("rank 1 holds %.3f of the draws", share)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestStatistics(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if m := median(xs); !near(m, 5.5) {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{3, 1, 2}); !near(m, 2) {
		t.Errorf("odd median = %v", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); !near(q1, 1) || !near(q3, 4) {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
	if s := spread(xs); !near(s, 1) {
		t.Errorf("spread = %v", s)
	}
	sorted := sortedCopy(xs)
	for q, want := range map[float64]float64{0.5: 5, 0.95: 10, 0.9: 9, 0.01: 1} {
		if got := percentile(sorted, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 9 {
		t.Error("median or quartiles reordered the input")
	}
}

func TestCompareArithmetic(t *testing.T) {
	lower := gatedMetric{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := gatedMetric{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	if w := worse(lower, 100, 112); !near(w, 0.12) {
		t.Errorf("lower-is-better worse = %v", w)
	}
	if w := worse(higher, 100, 88); !near(w, 0.12) {
		t.Errorf("higher-is-better worse = %v", w)
	}
	if w := worse(higher, 100, 120); !near(w, -0.2) {
		t.Errorf("an improvement must be negative, got %v", w)
	}
	// A ratio's bound is a difference, not a share of the old median.
	ratio := gatedMetric{Name: "correct_ratio", Unit: "ratio", Better: "higher", Bound: 0.005}
	if w := worse(ratio, 0.620, 0.616); !near(w, 0.004) {
		t.Errorf("ratio worse = %v", w)
	}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01} }
	for _, tc := range []struct {
		m        gatedMetric
		old, new []float64
		want     string
	}{
		{lower, tight(100), tight(105), "ok"},
		{lower, tight(100), tight(111), "REGRESSION"},
		{lower, tight(100), tight(80), "ok"},
		{higher, tight(100), tight(89), "REGRESSION"},
		{higher, tight(100), tight(95), "ok"},
		{lower, []float64{80, 100, 130}, tight(105), "unresolved"},
		{ratio, []float64{0.620, 0.620, 0.621}, []float64{0.616, 0.616, 0.617}, "ok"},
		{ratio, []float64{0.620, 0.620, 0.621}, []float64{0.614, 0.614, 0.615}, "REGRESSION"},
		{failRatio, []float64{0, 0, 0}, []float64{0, 0, 0}, "ok"},
		{failRatio, []float64{0, 0, 0}, []float64{0, 0.001, 0.001}, "REGRESSION"},
	} {
		if got := verdict(tc.m, tc.old, tc.new); got != tc.want {
			t.Errorf("%s %v → %v: %s, want %s", tc.m.Name, tc.old, tc.new, got, tc.want)
		}
	}
}

func TestRowComparator(t *testing.T) {
	// int64 and float64 meet as one JSON number.
	local := [][]graph.Value{{int64(3), "a"}, {int64(1), "b"}, {2.5, nil}}
	wire, err := wireRows(local)
	if err != nil {
		t.Fatal(err)
	}
	received := [][]graph.Value{{float64(3), "a"}, {float64(1), "b"}, {2.5, nil}}
	if rowsKey(wire, true) != rowsKey(received, true) {
		t.Error("rows differ after the JSON round trip")
	}
	swapped := [][]graph.Value{received[1], received[0], received[2]}
	if rowsKey(swapped, true) == rowsKey(received, true) {
		t.Error("ordered comparison ignored the order")
	}
	if rowsKey(swapped, false) != rowsKey(received, false) {
		t.Error("multiset comparison saw the order")
	}
	if rowsKey([][]graph.Value{received[0], received[0]}, false) == rowsKey([][]graph.Value{received[0]}, false) {
		t.Error("multiset comparison ignored a duplicate row")
	}
	// Maps (nodes on the wire) compare by content, not key order.
	a := [][]graph.Value{{map[string]any{"x": 1.0, "y": []any{"p", "q"}}}}
	b := [][]graph.Value{{map[string]any{"y": []any{"p", "q"}, "x": 1.0}}}
	if rowsKey(a, true) != rowsKey(b, true) {
		t.Error("map key order leaked into the row key")
	}

	fx := mustFixture(t)
	orc := newOracle(fx.graph)
	ordered := op{Class: classHeavy, Text: "MATCH (a:AS) RETURN a.asn AS asn ORDER BY asn DESC LIMIT 5"}
	loose := op{Class: classLight, Text: "MATCH (a:AS) RETURN a.asn AS asn LIMIT 5"}
	for _, p := range []op{ordered, loose} {
		e, err := orc.expect(p.Text)
		if err != nil {
			t.Fatal(err)
		}
		if e.ordered != (p.Class == classHeavy) {
			t.Fatalf("%q: ordered = %v", p.Text, e.ordered)
		}
	}
	reply := func(p op, reverse bool) *api.CypherResponse {
		res, err := cypher.Execute(fx.graph, p.Text, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := wireRows(res.Rows)
		if err != nil {
			t.Fatal(err)
		}
		if reverse {
			for i, j := 0, len(r)-1; i < j; i, j = i+1, j-1 {
				r[i], r[j] = r[j], r[i]
			}
		}
		return &api.CypherResponse{Columns: []string{"asn"}, Rows: r}
	}
	if !orc.checkCypher(ordered, reply(ordered, false)) || orc.checkCypher(ordered, reply(ordered, true)) {
		t.Error("ORDER BY result: the order must matter")
	}
	if !orc.checkCypher(loose, reply(loose, false)) || !orc.checkCypher(loose, reply(loose, true)) {
		t.Error("result without ORDER BY: the order must not matter")
	}
	wrongCols := reply(loose, false)
	wrongCols.Columns = []string{"a.asn"}
	if orc.checkCypher(loose, wrongCols) {
		t.Error("column names must match")
	}
}

// smallSystem is the pipeline the smoke test serves, on the small
// fixture's own graph.
var smallSystem = sync.OnceValues(func() (*chatiyp.System, error) {
	fx, err := smallFixture()
	if err != nil {
		return nil, err
	}
	return chatiyp.FromGraph(fx.graph, nil, chatiyp.Options{})
})

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.op = 7
	root := tr.begin("inproc_op")
	child := tr.begin("resilience.complete")
	leaf := tr.begin("llm.answer")
	tr.end(leaf)
	tr.end(child)
	tr.end(root)
	replayed := false
	tr.replay("cypher.exec", root, func() { replayed = true })
	if !replayed || len(tr.spans) != 4 {
		t.Fatalf("replayed=%v spans=%d", replayed, len(tr.spans))
	}
	wantParent := []int{-1, root, child, root}
	for i, s := range tr.spans {
		if s.Parent != wantParent[i] || s.Op != 7 || s.End < s.Start {
			t.Errorf("span %d: %+v", i, s)
		}
	}
	if !tr.spans[3].Replay || tr.spans[1].Replay {
		t.Error("only the replayed span may be marked as one")
	}
	if r, c := tr.spans[root], tr.spans[child]; c.Start < r.Start || c.End > r.End {
		t.Error("a live child must lie inside its parent")
	}
}

// TestSmokeAllWorkloads drives 50 ops of every workload through the
// real handler, the SDK and the oracle.
func TestSmokeAllWorkloads(t *testing.T) {
	fx := mustFixture(t)
	sys, err := smallSystem()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Pipeline: sys.Pipeline(), SemCacheThreshold: semCacheThreshold})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := newLoadClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	orc := newOracle(fx.graph)
	// cypher_rw last: its writes move the graph version, which empties
	// the semantic cache the ask workloads rely on.
	for _, w := range workloadNames {
		ops := mustOps(t, w, fx, 1, 50)
		if err := orc.prepare(append(append([]op(nil), ops.Warmup...), ops.Measured...)); err != nil {
			t.Fatal(err)
		}
		if _, err := runWarmup(c, orc, ops.Warmup); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		outs, _ := runClosedLoop(c, orc, ops.Measured, time.Now().Add(time.Minute))
		s := summarize(outs)
		if s.attempted != 50 || s.failed != 0 {
			t.Fatalf("%s: attempted %d, failed %d (%s)", w, s.attempted, s.failed, s.firstFailure)
		}
		switch w {
		case wlAskCold:
			if s.correct == 0 || s.correct == s.attempted {
				t.Errorf("ask_cold: %d of %d execution-accurate; the simulated model should get some but not all", s.correct, s.attempted)
			}
		case wlAskWarm:
			if hits := len(s.byClass[classHit]); hits != s.attempted {
				t.Errorf("ask_warm: %d of %d ops were cache hits", hits, s.attempted)
			}
		default:
			if s.correct != s.attempted {
				t.Errorf("%s: %d of %d responses match the oracle", w, s.correct, s.attempted)
			}
		}
		if want := ops.creates(); want > 0 {
			got, err := countNotes(c)
			if err != nil || got != want {
				t.Errorf("%s: server holds %d notes (err %v), %d creates were acknowledged", w, got, err, want)
			}
		}
	}
}

func TestTranslatesStably(t *testing.T) {
	for gold, want := range map[string]bool{
		"MATCH (:AS {asn: 1})-[:NAME]->(n:Name) RETURN n.name":                                                          true,
		"MATCH (:DomainName {name: 'a.example.com'})-[r:RANK]->(:Ranking {name: 'Tranco top 1M'}) RETURN r.rank":        true,
		"MATCH (a:AS)-[:COUNTRY]->(:Country {country_code: 'NL'}) MATCH (a)-[:ORIGINATE]->(p:Prefix) RETURN a.asn":      false,
		"MATCH (a:AS {asn: 1})-[p:POPULATION]->(c:Country) RETURN c.country_code, p.percent":                            false,
		"MATCH (a:AS)-[:MEMBER_OF]->(i:IXP) MATCH (b:AS)-[:MEMBER_OF]->(i) WHERE a.asn = 1 AND b.asn = 2 RETURN i.name": false,
	} {
		if got := translatesStably(gold); got != want {
			t.Errorf("translatesStably(%q) = %v, want %v", gold, got, want)
		}
	}
}

// TestInprocMirrorsServer holds the traced run's in-process assembly
// against the server's own (chatiyp.FromGraph, then server.New at the
// benchmark's flags): the same questions, asked twice, must take the
// same path and return the same rows through both.
func TestInprocMirrorsServer(t *testing.T) {
	fx := mustFixture(t)
	// A system of its own: the smoke test's may predate its writes.
	sys, err := chatiyp.FromGraph(fx.graph, nil, chatiyp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Pipeline: sys.Pipeline(), SemCacheThreshold: semCacheThreshold})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := newLoadClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ip := newInproc()
	if err := ip.assemble(fx.graph, newTracer()); err != nil {
		t.Fatal(err)
	}
	stages := func(n int, stage func(int) string) string {
		var b []byte
		for i := 0; i < n; i++ {
			b = append(append(b, stage(i)...), ' ')
		}
		return string(b)
	}
	// ask_warm's hot questions are the ones both processes translate
	// alike; the pass after the first hits the semantic cache.
	ops := mustOps(t, wlAskWarm, fx, 1, 40)
	hits := 0
	for _, p := range append(ops.Warmup[:hotQuestions:hotQuestions], ops.Measured...) {
		r := c.send(p)
		if r.err != nil {
			t.Fatal(r.err)
		}
		ans, err := ip.pipe.Ask(bg, p.Text)
		if err != nil {
			t.Fatal(err)
		}
		got, want := r.ask, ans
		if got.Cypher != want.Cypher || got.CacheHit != want.CacheHit || got.Fallback != want.UsedVectorFallback ||
			got.Degraded != want.Degraded || got.Answer != want.Text || rowsKey(got.Rows, true) != wireKey(want.Rows) {
			t.Fatalf("%q: server %+v, in-process %+v", p.Text, got, want)
		}
		if gs, ws := stages(len(got.Trace), func(i int) string { return got.Trace[i].Stage }),
			stages(len(want.Trace), func(i int) string { return want.Trace[i].Stage }); gs != ws {
			t.Fatalf("%q: server stages %q, in-process stages %q", p.Text, gs, ws)
		}
		if got.CacheHit {
			hits++
		}
	}
	if hits < len(ops.Measured) {
		t.Errorf("%d cache hits, want at least %d", hits, len(ops.Measured))
	}
}
