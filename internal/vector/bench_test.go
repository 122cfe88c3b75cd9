package vector

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"chatiyp/internal/embed"
)

// benchDim keeps index-build time reasonable while preserving the
// exact-vs-ANN cost ratio (both scale linearly in dim).
const benchDim = 64

type retrievalFixture struct {
	exact   *Index
	ann     *HNSW
	queries []embed.Vector
}

var (
	fixturesMu sync.Mutex
	fixtures   = map[int]*retrievalFixture{}
)

// fixtureFor builds (once per process) an exact and an HNSW index over
// the same seeded clustered corpus, plus a query workload.
func fixtureFor(b *testing.B, docs int) *retrievalFixture {
	b.Helper()
	fixturesMu.Lock()
	defer fixturesMu.Unlock()
	if f, ok := fixtures[docs]; ok {
		return f
	}
	vecs := clusteredCorpus(42, docs, benchDim, 128)
	f := &retrievalFixture{
		exact: NewIndex(benchDim),
		ann:   NewHNSW(HNSWConfig{Dim: benchDim, M: 16, EfConstruction: 64, EfSearch: 64}),
	}
	for i, v := range vecs {
		d := Doc{ID: int64(i + 1), Vec: v}
		if err := f.exact.Add(d); err != nil {
			b.Fatal(err)
		}
		if err := f.ann.Add(d); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 256; q++ {
		f.queries = append(f.queries, randomUnit(rng, benchDim))
	}
	fixtures[docs] = f
	return f
}

// BenchmarkRetrieval compares the exact brute-force scan against the
// HNSW graph on identical corpora, per corpus size. The 100k case is the scale
// argument and is skipped in -short runs (CI's quick smoke).
func BenchmarkRetrieval(b *testing.B) {
	for _, docs := range []int{10_000, 100_000} {
		if docs > 10_000 && testing.Short() {
			continue
		}
		f := fixtureFor(b, docs)
		b.Run(fmt.Sprintf("docs=%d/exact", docs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.exact.Search(f.queries[i%len(f.queries)], 10, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("docs=%d/hnsw", docs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.ann.Search(f.queries[i%len(f.queries)], 10, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactSearch measures the satellite optimization: stored
// vectors pre-normalized at insert (scoring = one dot product) against
// the pre-PR-7 behavior of recomputing cosine magnitudes per document.
func BenchmarkExactSearch(b *testing.B) {
	f := fixtureFor(b, 10_000)
	b.Run("normalized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.exact.Search(f.queries[i%len(f.queries)], 10, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cosine", func(b *testing.B) {
		// Reference: the pre-normalization Search — per-doc Cosine
		// (norms recomputed for both operands on every document) into
		// the same bounded top-k heap.
		docs := f.exact.All()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.queries[i%len(f.queries)]
			h := make(hitHeap, 0, 10)
			for _, d := range docs {
				hit := Hit{Doc: d, Score: q.Cosine(d.Vec)}
				if h.Len() < 10 {
					heap.Push(&h, hit)
					continue
				}
				if better(hit, h[0]) {
					h[0] = hit
					heap.Fix(&h, 0)
				}
			}
		}
	})
}

// BenchmarkHNSWInsert tracks incremental insert cost at working size.
func BenchmarkHNSWInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ann := NewHNSW(HNSWConfig{Dim: benchDim, M: 16, EfConstruction: 64})
	seed := clusteredCorpus(8, 2_000, benchDim, 32)
	for i, v := range seed {
		if err := ann.Add(Doc{ID: int64(i + 1), Vec: v}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ann.Add(Doc{ID: int64(len(seed) + i + 1), Vec: randomUnit(rng, benchDim)}); err != nil {
			b.Fatal(err)
		}
	}
}
