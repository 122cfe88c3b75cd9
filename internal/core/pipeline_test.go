package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"chatiyp/internal/cypher"
	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
	"chatiyp/internal/llm"
)

// newTestPipeline builds a small-world pipeline with a clean (no
// corruption) simulated model.
func newTestPipeline(t testing.TB, errorScale float64) (*Pipeline, *iyp.World) {
	t.Helper()
	g, w, err := iyp.Build(iyp.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	lx := BuildLexicon(g)
	cfg := llm.DefaultSimConfig(lx)
	cfg.ErrorScale = errorScale
	model := llm.NewSim(cfg)
	p, err := New(Config{Graph: g, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	return p, w
}

func TestNewRequiresGraphAndModel(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoGraph) {
		t.Errorf("err = %v", err)
	}
	g := graph.New()
	if _, err := New(Config{Graph: g}); !errors.Is(err, ErrNoModel) {
		t.Errorf("err = %v", err)
	}
}

func TestIntroExample(t *testing.T) {
	// The paper's worked example: population share question answered
	// via the generated POPULATION query.
	p, w := newTestPipeline(t, 0)
	var as *struct {
		ASN int64
		Pct float64
		CC  string
	}
	for _, a := range w.ASes {
		if a.PopPercent > 0 {
			as = &struct {
				ASN int64
				Pct float64
				CC  string
			}{a.ASN, a.PopPercent, a.Country.Code}
			break
		}
	}
	if as == nil {
		t.Fatal("no AS with population estimate")
	}
	var countryName string
	for _, c := range w.Countries {
		if c.Code == as.CC {
			countryName = c.Name
		}
	}
	q := fmt.Sprintf("What is the percentage of %s's population in AS%d?", countryName, as.ASN)
	ans, err := p.Ask(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans.Cypher, "POPULATION") {
		t.Errorf("cypher = %q", ans.Cypher)
	}
	want := fmt.Sprintf("%.1f", as.Pct)
	if !strings.Contains(ans.Text, want) {
		t.Errorf("answer %q missing %s", ans.Text, want)
	}
	if ans.UsedVectorFallback {
		t.Error("structured path should not need fallback here")
	}
	if len(ans.Trace) == 0 || ans.Duration <= 0 {
		t.Error("trace/duration not recorded")
	}
}

func TestStructuredPathAnswersNameQuestion(t *testing.T) {
	p, w := newTestPipeline(t, 0)
	q := fmt.Sprintf("What is the name of AS%d?", w.ASes[0].ASN)
	ans, err := p.Ask(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans.Text, w.ASes[0].Name) {
		t.Errorf("answer %q missing %q", ans.Text, w.ASes[0].Name)
	}
	if len(ans.Rows) != 1 {
		t.Errorf("rows = %v", ans.Rows)
	}
	// Context records come from the cypher path.
	for _, rec := range ans.Context {
		if rec.Source != "cypher" {
			t.Errorf("unexpected context source %s", rec.Source)
		}
	}
}

func TestVectorFallbackOnUntranslatableQuestion(t *testing.T) {
	p, w := newTestPipeline(t, 0)
	// A question the rule library cannot translate but whose vocabulary
	// matches node descriptions.
	q := fmt.Sprintf("Tell me about the operator called %s and its infrastructure footprint", w.ASes[0].Name)
	ans, err := p.Ask(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.CypherError == "" {
		t.Skip("rule library translated it; fallback not exercised")
	}
	if !ans.UsedVectorFallback {
		t.Fatal("vector fallback did not run")
	}
	if len(ans.Context) == 0 {
		t.Fatal("no context retrieved")
	}
	found := false
	for _, rec := range ans.Context {
		if rec.Source == "vector" && strings.Contains(rec.Text, w.ASes[0].Name) {
			found = true
		}
	}
	if !found {
		t.Errorf("vector context does not mention %q: %+v", w.ASes[0].Name, ans.Context)
	}
	if ans.Text == "" {
		t.Error("no answer generated from fallback context")
	}
}

func TestDisableVectorFallback(t *testing.T) {
	g, _, err := iyp.Build(iyp.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	model := llm.NewSim(llm.DefaultSimConfig(BuildLexicon(g)))
	p, err := New(Config{Graph: g, Model: model, DisableVectorFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := p.Ask(context.Background(), "Describe the weather on the moon")
	if err != nil {
		t.Fatal(err)
	}
	if ans.UsedVectorFallback || len(ans.Context) != 0 {
		t.Errorf("fallback ran despite being disabled: %+v", ans.Context)
	}
	// Generation still produces a (declining) answer.
	if ans.Text == "" {
		t.Error("no answer")
	}
}

func TestRerankerLimitsContext(t *testing.T) {
	g, _, err := iyp.Build(iyp.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	model := llm.NewSim(llm.DefaultSimConfig(BuildLexicon(g)))
	p, err := New(Config{Graph: g, Model: model, VectorTopK: 10, RerankKeep: 3})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := p.Ask(context.Background(), "Describe the most interesting exchange points and operators")
	if err != nil {
		t.Fatal(err)
	}
	if !ans.UsedVectorFallback {
		t.Skip("question translated; reranker not exercised")
	}
	if len(ans.Context) > 3 {
		t.Errorf("reranker kept %d records, want <= 3", len(ans.Context))
	}
	// Scores must be non-increasing.
	for i := 1; i < len(ans.Context); i++ {
		if ans.Context[i-1].Score < ans.Context[i].Score {
			t.Error("context not ordered by rerank score")
		}
	}
}

func TestRerankerDisabled(t *testing.T) {
	g, _, err := iyp.Build(iyp.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	model := llm.NewSim(llm.DefaultSimConfig(BuildLexicon(g)))
	p, err := New(Config{Graph: g, Model: model, VectorTopK: 10, RerankKeep: 3, DisableReranker: true})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := p.Ask(context.Background(), "Describe the most interesting exchange points and operators")
	if err != nil {
		t.Fatal(err)
	}
	if !ans.UsedVectorFallback {
		t.Skip("question translated; path not exercised")
	}
	if len(ans.Context) != 10 {
		t.Errorf("unreranked context = %d records, want 10", len(ans.Context))
	}
}

func TestBuildLexicon(t *testing.T) {
	g, w, err := iyp.Build(iyp.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	lx := BuildLexicon(g)
	if len(lx.Countries) == 0 || len(lx.CountryCodes) == 0 {
		t.Error("no countries in lexicon")
	}
	if len(lx.IXPs) != len(w.IXPs) {
		t.Errorf("IXPs = %d, want %d", len(lx.IXPs), len(w.IXPs))
	}
	if len(lx.Tags) == 0 || len(lx.Rankings) == 0 {
		t.Error("tags/rankings missing")
	}
	// Lexicon must map a known country name to its code.
	for name, code := range lx.Countries {
		if name == "" || len(code) != 2 {
			t.Errorf("bad lexicon entry %q -> %q", name, code)
		}
	}
}

func TestAnswerFromCypher(t *testing.T) {
	p, w := newTestPipeline(t, 0)
	q := fmt.Sprintf("How many prefixes does AS%d originate?", w.ASes[0].ASN)
	gold := fmt.Sprintf("MATCH (:AS {asn: %d})-[:ORIGINATE]->(p:Prefix) RETURN count(p)", w.ASes[0].ASN)
	ans, err := p.AnswerFromCypher(context.Background(), q, gold, "reference")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(w.ASes[0].NumPrefixes)
	if !strings.Contains(ans.Text, want) {
		t.Errorf("reference answer %q missing %s", ans.Text, want)
	}
	if _, err := p.AnswerFromCypher(context.Background(), q, "NOT CYPHER AT ALL", ""); err == nil {
		t.Error("bad gold query should error")
	}
}

func TestQueryPassthrough(t *testing.T) {
	p, _ := newTestPipeline(t, 0)
	res, err := p.Query("MATCH (c:Country) RETURN count(c)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Value(); !ok || v.(int64) <= 0 {
		t.Errorf("country count = %v", v)
	}
}

func TestFormatRows(t *testing.T) {
	p, _ := newTestPipeline(t, 0)
	res, err := p.Query("MATCH (a:AS) RETURN a.asn ORDER BY a.asn LIMIT 20", nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := FormatRows(res, 5)
	if len(recs) != 6 {
		t.Fatalf("records = %d, want 5 + summary", len(recs))
	}
	if !strings.Contains(recs[5], "more rows") {
		t.Errorf("missing overflow summary: %q", recs[5])
	}
	res2, _ := p.Query("MATCH (a:AS) RETURN a.asn AS asn, a.name AS name ORDER BY a.asn LIMIT 1", nil)
	recs2 := FormatRows(res2, 5)
	if len(recs2) != 1 || !strings.Contains(recs2[0], "asn: ") || !strings.Contains(recs2[0], "name: ") {
		t.Errorf("multi-column record = %v", recs2)
	}
	if FormatRows(nil, 5) != nil {
		t.Error("nil result should render nil")
	}
}

func TestPipelineTrace(t *testing.T) {
	p, w := newTestPipeline(t, 0)
	ans, err := p.Ask(context.Background(), fmt.Sprintf("What is the name of AS%d?", w.ASes[1].ASN))
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]bool{}
	for _, s := range ans.Trace {
		stages[s.Stage] = true
	}
	if !stages["text2cypher"] || !stages["generate"] {
		t.Errorf("trace stages = %v", ans.Trace)
	}
	if ans.TokensIn == 0 || ans.TokensOut == 0 {
		t.Error("token accounting missing")
	}
}

func TestModelErrorPropagates(t *testing.T) {
	g, _, err := iyp.Build(iyp.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	scripted := &llm.ScriptedModel{
		Errs: map[llm.Task]error{
			llm.TaskText2Cypher: llm.ErrNoTranslation,
			llm.TaskAnswer:      errors.New("model exploded"),
		},
	}
	p, err := New(Config{Graph: g, Model: scripted, DisableVectorFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Ask(context.Background(), "anything"); err == nil {
		t.Error("generation failure must propagate")
	}
}

func TestGeneratedQueryExecutionFailureFallsBack(t *testing.T) {
	g, _, err := iyp.Build(iyp.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	scripted := &llm.ScriptedModel{
		Responses: map[llm.Task][]llm.Response{
			llm.TaskText2Cypher: {{Text: "THIS IS NOT CYPHER"}},
			llm.TaskAnswer:      {{Text: "fallback answer"}},
			llm.TaskRerank:      {{Score: 5}},
		},
	}
	p, err := New(Config{Graph: g, Model: scripted})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := p.Ask(context.Background(), "anything about networks and exchanges")
	if err != nil {
		t.Fatal(err)
	}
	if ans.CypherError == "" {
		t.Error("execution failure not recorded")
	}
	if !ans.UsedVectorFallback {
		t.Error("fallback should engage on execution failure")
	}
	if ans.Text != "fallback answer" {
		t.Errorf("answer = %q", ans.Text)
	}
}

func TestAskDeterministic(t *testing.T) {
	p, w := newTestPipeline(t, 1.0)
	q := fmt.Sprintf("Which ASes does AS%d depend on?", w.ASes[10].ASN)
	first, err := p.Ask(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := p.Ask(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if again.Text != first.Text || again.Cypher != first.Cypher {
			t.Fatal("pipeline not deterministic")
		}
	}
}

func BenchmarkPipelineAsk(b *testing.B) {
	g, w, err := iyp.Build(iyp.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	model := llm.NewSim(llm.DefaultSimConfig(BuildLexicon(g)))
	p, err := New(Config{Graph: g, Model: model})
	if err != nil {
		b.Fatal(err)
	}
	q := fmt.Sprintf("How many prefixes does AS%d originate?", w.ASes[0].ASN)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Ask(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAskClosedBook(t *testing.T) {
	p, w := newTestPipeline(t, 0)
	q := fmt.Sprintf("How many prefixes does AS%d originate?", w.ASes[0].ASN)
	ans, err := p.AskClosedBook(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Without retrieval the model has no graph facts: the answer must
	// not contain the true count.
	if strings.Contains(ans.Text, fmt.Sprint(w.ASes[0].NumPrefixes)) {
		t.Errorf("closed-book answer leaked the true value: %q", ans.Text)
	}
	if ans.Cypher != "" || len(ans.Context) != 0 {
		t.Error("closed-book answer must carry no retrieval artifacts")
	}
	if len(ans.Trace) != 1 || ans.Trace[0].Stage != "generate" {
		t.Errorf("trace = %+v", ans.Trace)
	}
}

func TestQueryUsesPlanCache(t *testing.T) {
	p, w := newTestPipeline(t, 0)
	asn := w.ASes[0].ASN
	src := "MATCH (a:AS) WHERE a.asn = $n RETURN a.asn"
	for i := 0; i < 5; i++ {
		res, err := p.Query(src, map[string]any{"n": asn})
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := res.Value(); v != asn {
			t.Fatalf("got %v, want %d", v, asn)
		}
	}
	s := p.PlanCacheStats()
	if s.Misses == 0 || s.Hits < 4 {
		t.Fatalf("expected 1 miss + >=4 hits, got %+v", s)
	}
	if got := p.Metrics().Counter("cypher.plan_cache.hits").Value(); got != int64(s.Hits) {
		t.Fatalf("metrics counter %d diverges from cache stats %d", got, s.Hits)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	g, _, err := iyp.Build(iyp.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := llm.DefaultSimConfig(BuildLexicon(g))
	cfg.ErrorScale = 0
	p, err := New(Config{Graph: g, Model: llm.NewSim(cfg), PlanCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Query("RETURN 1", nil); err != nil {
		t.Fatal(err)
	}
	if s := p.PlanCacheStats(); s != (cypher.PlanCacheStats{}) {
		t.Fatalf("disabled cache should report zero stats, got %+v", s)
	}
}

func TestConcurrentAsksShareOnePlanCache(t *testing.T) {
	p, w := newTestPipeline(t, 0)
	questions := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		as := w.ASes[i%len(w.ASes)]
		questions = append(questions, fmt.Sprintf("How many prefixes does AS%d originate?", as.ASN))
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(questions)*4)
	for round := 0; round < 4; round++ {
		for _, q := range questions {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				ans, err := p.Ask(context.Background(), q)
				if err != nil {
					errs <- err
					return
				}
				if ans.Text == "" {
					errs <- errors.New("empty answer")
				}
			}(q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := p.PlanCacheStats()
	if s.Hits == 0 {
		t.Fatalf("template-shaped workload should hit the cache: %+v", s)
	}
}

func TestPlanCacheSurvivesGraphWrites(t *testing.T) {
	p, w := newTestPipeline(t, 0)
	asn := w.ASes[0].ASN
	read := "MATCH (a:AS) WHERE a.asn = $n RETURN a.asn"
	if _, err := p.Query(read, map[string]any{"n": asn}); err != nil {
		t.Fatal(err)
	}
	// A write through the same cache bumps the graph version; the read
	// plan must be rebuilt, not served stale, and see the new data.
	if _, err := p.Query("CREATE (a:AS {asn: 424242})", nil); err != nil {
		t.Fatal(err)
	}
	res, err := p.Query(read, map[string]any{"n": 424242})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Value(); v != int64(424242) {
		t.Fatalf("stale plan: got %v, want 424242", v)
	}
}
