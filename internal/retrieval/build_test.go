package retrieval_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"chatiyp/internal/core"
	"chatiyp/internal/embed"
	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
	"chatiyp/internal/llm"
	"chatiyp/internal/retrieval"
	"chatiyp/internal/vector"
)

// buildFixture is a world with a few thousand describable nodes, so the
// parallel build has many chunks to hand out.
var buildFixture = sync.OnceValue(func() *graph.Graph {
	g, _, err := iyp.Build(iyp.ScaleConfig{Seed: 5, ASes: 1200}.Config())
	if err != nil {
		panic(err)
	}
	return g
})

// serialRetrieval is the reference build: iyp.Describe, Embedder.Fit
// and one Embed and one Add per description, as core.New ran it before
// the build was made parallel.
func serialRetrieval(tb testing.TB, g *graph.Graph) ([]iyp.Description, *embed.Embedder, *vector.Index) {
	tb.Helper()
	descs := iyp.Describe(g)
	corpus := make([]string, len(descs))
	for i, d := range descs {
		corpus[i] = d.Text
	}
	emb := embed.NewDefault()
	emb.Fit(corpus)
	index := vector.NewIndex(emb.Dim())
	for _, d := range descs {
		if err := index.Add(vector.Doc{ID: d.NodeID, Text: d.Text, Kind: d.Label, Vec: emb.Embed(d.Text)}); err != nil {
			tb.Fatal(err)
		}
	}
	return descs, emb, index
}

func sameVectorBits(a, b embed.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestParallelBuildEqualsSerial: at GOMAXPROCS 1, 2 and 8 the parallel
// build produces the descriptions of iyp.Describe in the same order,
// for each the vector of Fit + Embed + vector.Normalize bit for bit —
// which, every feature of the IDF table occurring in some description,
// pins the table too (embed's TestFitAndCorporaMatchReference compares
// it entry by entry for any split of the documents) — an embedder that
// embeds unseen queries to the same bits, and an index that answers a
// seeded query set with the same IDs and score bits.
func TestParallelBuildEqualsSerial(t *testing.T) {
	g := buildFixture()
	descs, refEmb, refIndex := serialRetrieval(t, g)
	if len(descs) < 4*retrieval.BuildChunk {
		t.Fatalf("fixture has %d descriptions, too few to spread over workers", len(descs))
	}

	rng := rand.New(rand.NewSource(11))
	queries := []string{"internet exchange point peering in Germany", "zzz never seen qqq", ""}
	for i := 0; i < 40; i++ {
		words := strings.Fields(descs[rng.Intn(len(descs))].Text)
		rng.Shuffle(len(words), func(a, b int) { words[a], words[b] = words[b], words[a] })
		queries = append(queries, strings.Join(words[:min(len(words), 3+rng.Intn(6))], " "))
	}
	sameHits := func(stage string, got, want []vector.Hit) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d hits, serial build %d", stage, len(got), len(want))
		}
		for i := range want {
			if got[i].Doc.ID != want[i].Doc.ID || got[i].Doc.Text != want[i].Doc.Text || got[i].Doc.Kind != want[i].Doc.Kind ||
				math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("%s, hit %d: (%d, %v), serial build (%d, %v)", stage, i,
					got[i].Doc.ID, got[i].Score, want[i].Doc.ID, want[i].Score)
			}
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		tier := retrieval.Build(g.View())
		emb, docs, slab := tier.Embedder, tier.Docs, tier.Slab
		if len(docs) != len(descs) {
			t.Fatalf("GOMAXPROCS %d: %d docs, serial build %d", procs, len(docs), len(descs))
		}
		dim := emb.Dim()
		for i, d := range descs {
			if docs[i].ID != d.NodeID || docs[i].Text != d.Text || docs[i].Kind != d.Label {
				t.Fatalf("GOMAXPROCS %d: doc %d is (%d, %s, %q), serial build (%d, %s, %q)", procs, i,
					docs[i].ID, docs[i].Kind, docs[i].Text, d.NodeID, d.Label, d.Text)
			}
			want := refEmb.Embed(d.Text)
			vector.Normalize(want)
			if !sameVectorBits(slab[i*dim:(i+1)*dim], want) {
				t.Fatalf("GOMAXPROCS %d: vector of doc %d (node %d) differs from Fit + Embed + Normalize", procs, i, d.NodeID)
			}
		}
		index, err := vector.NewIndexFromSlab(dim, docs, slab)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			qv := emb.Embed(q)
			if !sameVectorBits(qv, refEmb.Embed(q)) {
				t.Fatalf("GOMAXPROCS %d: Embed(%q) differs between the two embedders", procs, q)
			}
			var filter vector.Filter
			if qi%3 == 1 {
				filter = vector.KindFilter(iyp.LabelAS)
			}
			want, err := refIndex.SearchContext(ctx, qv, 8, filter)
			if err != nil {
				t.Fatal(err)
			}
			got, err := index.SearchContext(ctx, qv, 8, filter)
			if err != nil {
				t.Fatal(err)
			}
			sameHits(fmt.Sprintf("GOMAXPROCS %d, query %q", procs, q), got, want)
		}
	}

	// And through the pipeline core.New assembles, still at 8.
	p, err := core.New(core.Config{Graph: g, Model: llm.NewSim(llm.DefaultSimConfig(core.BuildLexicon(g)))})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want, err := refIndex.SearchContext(ctx, refEmb.Embed(q), 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.SearchEntities(ctx, q, 8, "")
		if err != nil {
			t.Fatal(err)
		}
		sameHits(fmt.Sprintf("SearchEntities(%q)", q), got, want)
	}
}

// BenchmarkPipelineBuild measures the retrieval tier core.New indexes
// — describe, fit, embed, index — three ways: the serial reference, the
// parallel build at the benchmark's -cpu, and the boot's read of the
// same tier from its file, validation included.
func BenchmarkPipelineBuild(b *testing.B) {
	g := buildFixture()
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serialRetrieval(b, g)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tier := retrieval.Build(g.View())
			if _, err := vector.NewIndexFromSlab(tier.Embedder.Dim(), tier.Docs, tier.Slab); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "retrieval.iypv")
		stamp := retrieval.Stamp{StoreID: 1}
		writeTier(b, path, retrieval.Build(g.View()), stamp)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tier, err := retrieval.Read(path, stamp, g.View())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := vector.NewIndexFromSlab(tier.Embedder.Dim(), tier.Docs, tier.Slab); err != nil {
				b.Fatal(err)
			}
		}
	})
}
