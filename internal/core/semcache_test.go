package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"chatiyp/internal/iyp"
	"chatiyp/internal/llm"
)

// countingModel wraps a Model and counts Complete calls per task, so
// tests can prove a cache hit ran zero retrieval/generation.
type countingModel struct {
	inner llm.Model
	calls map[llm.Task]*atomic.Int64
}

func newCountingModel(inner llm.Model) *countingModel {
	return &countingModel{inner: inner, calls: map[llm.Task]*atomic.Int64{
		llm.TaskText2Cypher: {},
		llm.TaskAnswer:      {},
		llm.TaskRerank:      {},
	}}
}

func (m *countingModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if c, ok := m.calls[req.Task]; ok {
		c.Add(1)
	}
	return m.inner.Complete(ctx, req)
}

func (m *countingModel) count(task llm.Task) int64 { return m.calls[task].Load() }

// newSemCachePipeline builds a small-world pipeline with a counting
// model and the semantic cache configured as given.
func newSemCachePipeline(t testing.TB, threshold float64, size int) (*Pipeline, *countingModel) {
	t.Helper()
	g, _, err := iyp.Build(iyp.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := llm.DefaultSimConfig(BuildLexicon(g))
	cfg.ErrorScale = 0
	model := newCountingModel(llm.NewSim(cfg))
	p, err := New(Config{Graph: g, Model: model, SemCacheThreshold: threshold, SemCacheSize: size})
	if err != nil {
		t.Fatal(err)
	}
	return p, model
}

// TestSemCacheWarmAskSkipsGeneration is the acceptance proof: a repeat
// question is served from the cache with zero model calls — generation
// (and translation) genuinely skipped, not just fast.
func TestSemCacheWarmAskSkipsGeneration(t *testing.T) {
	p, model := newSemCachePipeline(t, 0.97, 0)
	const q = "Which country code is AS2497 registered in?"
	cold, err := p.Ask(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("first ask must miss")
	}
	before := model.count(llm.TaskAnswer) + model.count(llm.TaskText2Cypher) + model.count(llm.TaskRerank)
	warm, err := p.Ask(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("second ask must hit the semantic cache")
	}
	after := model.count(llm.TaskAnswer) + model.count(llm.TaskText2Cypher) + model.count(llm.TaskRerank)
	if after != before {
		t.Fatalf("warm ask made %d model calls, want 0", after-before)
	}
	if warm.Text != cold.Text || warm.Cypher != cold.Cypher {
		t.Fatalf("cached answer diverged: %q vs %q", warm.Text, cold.Text)
	}
	if warm.TokensIn != 0 || warm.TokensOut != 0 {
		t.Errorf("cache hit should spend no tokens, got in=%d out=%d", warm.TokensIn, warm.TokensOut)
	}
	if len(warm.Trace) != 1 || warm.Trace[0].Stage != "semcache" {
		t.Errorf("trace = %+v, want single semcache stage", warm.Trace)
	}
	s := p.SemCacheStats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", s)
	}
}

// TestSemCacheNearDuplicateHits: a paraphrase close in embedding space
// hits; the trace names the original question.
func TestSemCacheNearDuplicateHits(t *testing.T) {
	p, _ := newSemCachePipeline(t, 0.90, 0)
	const q = "Which country code is AS2497 registered in?"
	if _, err := p.Ask(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	warm, err := p.Ask(context.Background(), "Which country code is AS2497 registered in??")
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("near-duplicate should hit at threshold 0.90")
	}
	if !strings.Contains(warm.Trace[0].Detail, q) {
		t.Errorf("trace detail %q should name the original question", warm.Trace[0].Detail)
	}
}

// TestSemCacheThresholdMiss: a sufficiently different question must
// miss even with the cache warm.
func TestSemCacheThresholdMiss(t *testing.T) {
	p, _ := newSemCachePipeline(t, 0.97, 0)
	if _, err := p.Ask(context.Background(), "Which country code is AS2497 registered in?"); err != nil {
		t.Fatal(err)
	}
	other, err := p.Ask(context.Background(), "How many IXPs are there in Germany?")
	if err != nil {
		t.Fatal(err)
	}
	if other.CacheHit {
		t.Fatal("unrelated question must not be served from the cache")
	}
	if s := p.SemCacheStats(); s.Misses < 2 {
		t.Errorf("stats = %+v, want >= 2 misses", s)
	}
}

// TestSemCacheStalenessEviction is the invalidation rule: entries
// stamped with an older graph.Version() are never served after a write.
func TestSemCacheStalenessEviction(t *testing.T) {
	p, model := newSemCachePipeline(t, 0.97, 0)
	const q = "Which country code is AS2497 registered in?"
	if _, err := p.Ask(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	// Any write bumps the version; the cached entry is now stale.
	p.Graph().MustCreateNode([]string{"Tag"}, map[string]any{"label": "freshly-written"})
	before := model.count(llm.TaskAnswer)
	ans, err := p.Ask(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.CacheHit {
		t.Fatal("stale entry served after a write")
	}
	if model.count(llm.TaskAnswer) == before {
		t.Fatal("post-write ask must regenerate")
	}
	s := p.SemCacheStats()
	if s.Stale == 0 {
		t.Errorf("stats = %+v, want stale > 0", s)
	}
	// The regenerated answer was cached against the new version: warm
	// again.
	warm, err := p.Ask(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("re-cached entry should hit at the new version")
	}
}

// TestSemCacheCapacityBound: the LRU never exceeds its configured
// capacity, and the ghost-rebuild keeps the probe index working after
// heavy eviction.
func TestSemCacheCapacityBound(t *testing.T) {
	p, _ := newSemCachePipeline(t, 0.99, 4)
	questions := []string{
		"Which country code is AS2497 registered in?",
		"How many IXPs are there in Japan?",
		"How many IXPs are there in Germany?",
		"How many IXPs are there in France?",
		"How many IXPs are there in Brazil?",
		"How many IXPs are there in Canada?",
		"Which ASes are members of more than one IXP?",
	}
	for round := 0; round < 3; round++ {
		for _, q := range questions {
			if _, err := p.Ask(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := p.SemCacheStats()
	if s.Size > 4 {
		t.Fatalf("cache size %d exceeds capacity 4", s.Size)
	}
	if s.Capacity != 4 {
		t.Fatalf("capacity = %d, want 4", s.Capacity)
	}
	// The most recent question is still resident: it must hit.
	warm, err := p.Ask(context.Background(), questions[len(questions)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("most-recent question should still be cached")
	}
}

// TestSemCacheGhostRebuild drives enough evictions through a tiny cache
// that the probe index rebuilds (ghosts > capacity) and keeps
// answering.
func TestSemCacheGhostRebuild(t *testing.T) {
	c := newSemCache(0.99, 2, 4)
	vecs := [][]float32{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}}
	for round := 0; round < 5; round++ {
		for i, v := range vecs {
			c.put(fmt.Sprintf("q%d", i), v, &Answer{Text: fmt.Sprintf("a%d", i)}, 1)
		}
	}
	if got := c.ll.Len(); got > 2 {
		t.Fatalf("live entries %d > capacity 2", got)
	}
	// The last two inserted must be probeable.
	if ans, _, _, ok, _ := c.get(context.Background(), vecs[3], 1); !ok || ans.Text != "a3" {
		t.Fatalf("probe after rebuild failed: ok=%v", ok)
	}
}

// TestSemCacheConcurrent hammers Ask from several goroutines over a
// small question set; under -race this proves the cache's locking.
func TestSemCacheConcurrent(t *testing.T) {
	p, _ := newSemCachePipeline(t, 0.97, 8)
	questions := []string{
		"Which country code is AS2497 registered in?",
		"How many IXPs are there in Japan?",
		"How many IXPs are there in Germany?",
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := p.Ask(context.Background(), questions[(w+i)%len(questions)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := p.SemCacheStats()
	if s.Hits == 0 {
		t.Error("concurrent warm asks should produce hits")
	}
	if s.Size > 8 {
		t.Errorf("size %d exceeds capacity", s.Size)
	}
}

// TestANNRetrievalFallback: with ANNRetrieval on, the vector fallback
// still produces context for questions structured retrieval can't
// answer.
func TestANNRetrievalFallback(t *testing.T) {
	g, _, err := iyp.Build(iyp.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := llm.DefaultSimConfig(BuildLexicon(g))
	cfg.ErrorScale = 0
	p, err := New(Config{Graph: g, Model: llm.NewSim(cfg), ANNRetrieval: true})
	if err != nil {
		t.Fatal(err)
	}
	hits, err := p.vectorRetrieve(context.Background(), "internet exchange point peering")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("ANN retrieval returned nothing")
	}
}

// BenchmarkSemCacheAsk measures the full Ask path cold (no semantic
// cache: translate, execute, generate every time) against warm (cache
// enabled and pre-seeded: embed the question, probe the ANN index,
// serve the stamped answer).
func BenchmarkSemCacheAsk(b *testing.B) {
	const q = "Which country code is AS2497 registered in?"
	b.Run("cold", func(b *testing.B) {
		p, _ := newSemCachePipeline(b, 0, -1)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Ask(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		p, _ := newSemCachePipeline(b, 0.97, 0)
		if _, err := p.Ask(context.Background(), q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ans, err := p.Ask(context.Background(), q)
			if err != nil {
				b.Fatal(err)
			}
			if !ans.CacheHit {
				b.Fatal("warm ask missed the cache")
			}
		}
	})
}
