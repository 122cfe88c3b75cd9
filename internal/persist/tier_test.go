package persist_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"chatiyp/internal/core"
	"chatiyp/internal/embed"
	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
	"chatiyp/internal/llm"
	"chatiyp/internal/persist"
	"chatiyp/internal/retrieval"
	"chatiyp/internal/vector"
)

// smallGraph builds the small IYP world afresh: Init and the writes of a
// test must not reach another test's graph.
func smallGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, _, err := iyp.Build(iyp.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func openStore(t *testing.T, dir string) *persist.Store {
	t.Helper()
	s, err := persist.Open(dir, persist.Options{Fsync: persist.FsyncNever, VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// initAndOpen seeds a data directory with the small world and opens it.
func initAndOpen(t *testing.T) (string, *persist.Store) {
	t.Helper()
	dir := t.TempDir()
	if err := persist.Init(dir, smallGraph(t)); err != nil {
		t.Fatal(err)
	}
	return dir, openStore(t, dir)
}

// noTier asserts that s holds no tier, for reason want, and that the
// reason reads as the boot log prints it.
func noTier(t *testing.T, s *persist.Store, want error, text string) {
	t.Helper()
	tier, _, err := s.Retrieval()
	if tier != nil || !errors.Is(err, want) {
		t.Fatalf("Retrieval() = (%v, %v), want no tier and %v", tier != nil, err, want)
	}
	if !strings.Contains(err.Error(), text) {
		t.Fatalf("reason %q does not say %q", err, text)
	}
}

// loadedTier returns the tier s read, failing the test when it has none.
func loadedTier(t *testing.T, s *persist.Store) *retrieval.Tier {
	t.Helper()
	tier, _, err := s.Retrieval()
	if err != nil || tier == nil {
		t.Fatalf("Retrieval() = (%v, %v), want the tier", tier != nil, err)
	}
	return tier
}

// sameTier reports the first difference between two tiers: docs, the
// IDF weight of every fitted feature, or the bits of the slab.
func sameTier(got, want *retrieval.Tier) error {
	if len(got.Docs) != len(want.Docs) {
		return fmt.Errorf("%d docs, want %d", len(got.Docs), len(want.Docs))
	}
	for i := range want.Docs {
		g, w := got.Docs[i], want.Docs[i]
		if g.ID != w.ID || g.Kind != w.Kind || g.Text != w.Text {
			return fmt.Errorf("doc %d is (%d, %s, %q), want (%d, %s, %q)", i, g.ID, g.Kind, g.Text, w.ID, w.Kind, w.Text)
		}
	}
	if got.Embedder.Config() != want.Embedder.Config() || len(got.DocFreqs) != len(want.DocFreqs) {
		return fmt.Errorf("embedder %+v over %d features, want %+v over %d",
			got.Embedder.Config(), len(got.DocFreqs), want.Embedder.Config(), len(want.DocFreqs))
	}
	for _, h := range append([]uint32{0xdeadbeef}, hashes(want.DocFreqs)...) {
		if g, w := got.Embedder.IDF(h), want.Embedder.IDF(h); math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("IDF of feature %#x is %v, want %v", h, g, w)
		}
	}
	if len(got.Slab) != len(want.Slab) {
		return fmt.Errorf("slab of %d values, want %d", len(got.Slab), len(want.Slab))
	}
	for i := range want.Slab {
		if math.Float32bits(got.Slab[i]) != math.Float32bits(want.Slab[i]) {
			return fmt.Errorf("slab value %d is %v, want %v", i, got.Slab[i], want.Slab[i])
		}
	}
	return nil
}

func hashes(df []embed.DocFreq) []uint32 {
	out := make([]uint32, len(df))
	for i, f := range df {
		out[i] = f.Hash
	}
	return out
}

// pipelineOn assembles a pipeline on g around tier (nil builds it).
func pipelineOn(t *testing.T, g *graph.Graph, tier *retrieval.Tier, ann bool) *core.Pipeline {
	t.Helper()
	p, err := core.New(core.Config{Graph: g, Model: llm.NewSim(llm.DefaultSimConfig(core.BuildLexicon(g))),
		Retrieval: tier, ANNRetrieval: ann})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// seededQueries draws word sets from the docs, plus two odd ones.
func seededQueries(docs []vector.Doc) []string {
	rng := rand.New(rand.NewSource(17))
	queries := []string{"internet exchange point peering in Germany", "zzz never seen qqq"}
	for i := 0; i < 30; i++ {
		words := strings.Fields(docs[rng.Intn(len(docs))].Text)
		rng.Shuffle(len(words), func(a, b int) { words[a], words[b] = words[b], words[a] })
		queries = append(queries, strings.Join(words[:min(len(words), 3+rng.Intn(6))], " "))
	}
	return queries
}

// sameSearches asserts that two pipelines return the same top-k, IDs
// and score bits, for every query.
func sameSearches(t *testing.T, name string, got, want *core.Pipeline, queries []string) {
	t.Helper()
	ctx := context.Background()
	for _, q := range queries {
		gh, err := got.SearchEntities(ctx, q, 8, "")
		if err != nil {
			t.Fatal(err)
		}
		wh, err := want.SearchEntities(ctx, q, 8, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(gh) != len(wh) {
			t.Fatalf("%s, %q: %d hits, want %d", name, q, len(gh), len(wh))
		}
		for i := range wh {
			if gh[i].Doc.ID != wh[i].Doc.ID || math.Float64bits(gh[i].Score) != math.Float64bits(wh[i].Score) {
				t.Fatalf("%s, %q, hit %d: (%d, %v), want (%d, %v)", name, q, i, gh[i].Doc.ID, gh[i].Score, wh[i].Doc.ID, wh[i].Score)
			}
		}
	}
}

// searchAll returns the IDs and score bits of p's top-k for each query.
func searchAll(t *testing.T, p *core.Pipeline, queries []string) [][2]uint64 {
	t.Helper()
	var out [][2]uint64
	for _, q := range queries {
		hits, err := p.SearchEntities(context.Background(), q, 8, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hits {
			out = append(out, [2]uint64{uint64(h.Doc.ID), math.Float64bits(h.Score)})
		}
	}
	return out
}

// TestStoredTierEqualsBuilt: the tier Init writes and Open reads is the
// tier Build makes of the reopened cold graph — docs, IDF bits, slab
// bits — and pipelines on either give the same top-k, IDs and score
// bits, on the exact index and on HNSW, both built on the one tier Open
// read, at GOMAXPROCS 1 and 2.
func TestStoredTierEqualsBuilt(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		_, s := initAndOpen(t)
		g := s.Graph()
		loaded := loadedTier(t, s)
		built := retrieval.Build(g.View())
		if err := sameTier(loaded, built); err != nil {
			t.Fatalf("GOMAXPROCS %d: stored tier differs from a build: %v", procs, err)
		}
		queries := seededQueries(built.Docs)
		for _, ann := range []bool{false, true} {
			sameSearches(t, fmt.Sprintf("GOMAXPROCS %d, ANN %v", procs, ann),
				pipelineOn(t, g, loaded, ann), pipelineOn(t, g, nil, ann), queries)
		}
		if _, publishes, _ := g.SnapshotStats(); publishes != 1 {
			t.Fatalf("reading and validating the tier published %d epochs past the loaded one", publishes-1)
		}
		s.Close()
	}
}

// addAS writes one describable node through the store's graph.
func addAS(t *testing.T, g *graph.Graph, asn int64) {
	t.Helper()
	if _, err := g.CreateNode([]string{iyp.LabelAS}, map[string]any{"asn": asn, "name": "Tier Test Networks"}); err != nil {
		t.Fatal(err)
	}
}

// TestTierStaleAfterReplay: a write journaled but never checkpointed
// makes the tier stale, and the fallback build describes the replayed
// graph, new node included, as a build on a graph that never went
// through the store does.
func TestTierStaleAfterReplay(t *testing.T) {
	dir, s := initAndOpen(t)
	addAS(t, s.Graph(), 4_200_000_001)
	// No Close, no Checkpoint: the process was killed.

	s2 := openStore(t, dir)
	defer s2.Close()
	noTier(t, s2, retrieval.ErrStale, "replayed 1 WAL records")

	fresh := smallGraph(t)
	addAS(t, fresh, 4_200_000_001)
	rebuilt, want := retrieval.Build(s2.Graph().View()), retrieval.Build(fresh.View())
	if err := sameTier(rebuilt, want); err != nil {
		t.Fatalf("fallback build differs from a fresh build: %v", err)
	}
	queries := append(seededQueries(want.Docs), "Tier Test Networks")
	sameSearches(t, "after replay", pipelineOn(t, s2.Graph(), rebuilt, false), pipelineOn(t, fresh, nil, false), queries)
}

// TestCheckpointRewritesTier: a checkpoint writes the tier of the graph
// it checkpoints, under the new base's stamp, and the next boot reads
// it; a pipeline on the tier read before it, whose file the checkpoint
// renamed a new one over, answers as it did.
func TestCheckpointRewritesTier(t *testing.T) {
	dir, s := initAndOpen(t)
	old := loadedTier(t, s)
	before := len(old.Docs)
	queries := seededQueries(old.Docs)
	p := pipelineOn(t, s.Graph(), old, false)
	want := searchAll(t, p, queries)
	addAS(t, s.Graph(), 4_200_000_002)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := searchAll(t, p, queries); !slices.Equal(got, want) {
		t.Fatal("a pipeline on the tier read at Open answers differently after a checkpoint replaced its file")
	}
	s.Close()

	s2 := openStore(t, dir)
	defer s2.Close()
	tier := loadedTier(t, s2)
	if len(tier.Docs) != before+1 {
		t.Fatalf("checkpointed tier holds %d docs, want %d", len(tier.Docs), before+1)
	}
	if err := sameTier(tier, retrieval.Build(s2.Graph().View())); err != nil {
		t.Fatalf("checkpointed tier differs from a build: %v", err)
	}
}

// copyFile copies src over dst.
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTierCrashWindows: a checkpoint that died between its two writes
// leaves a tier and a base of different generations, in either order;
// each boot falls back to a build that equals a build of the graph it
// opened.
func TestTierCrashWindows(t *testing.T) {
	t.Run("new tier, old base", func(t *testing.T) {
		dir, s := initAndOpen(t)
		oldBase, oldWAL := t.TempDir()+"/base", t.TempDir()+"/wal"
		addAS(t, s.Graph(), 4_200_000_003)
		copyFile(t, persist.BasePath(dir), oldBase)
		copyFile(t, persist.WALPath(dir), oldWAL)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		// The tier reached the disk; the base and the compaction did not.
		copyFile(t, oldBase, persist.BasePath(dir))
		copyFile(t, oldWAL, persist.WALPath(dir))

		s2 := openStore(t, dir)
		defer s2.Close()
		noTier(t, s2, retrieval.ErrStale, "replayed 1 WAL records")
	})
	t.Run("new base, old tier", func(t *testing.T) {
		dir, s := initAndOpen(t)
		oldTier := t.TempDir() + "/tier"
		copyFile(t, persist.TierPath(dir), oldTier)
		addAS(t, s.Graph(), 4_200_000_004)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		// The base reached the disk; the tier's rename did not.
		copyFile(t, oldTier, persist.TierPath(dir))

		s2 := openStore(t, dir)
		defer s2.Close()
		noTier(t, s2, retrieval.ErrStale, "tier built from base")
		if got := retrieval.Build(s2.Graph().View()); len(got.Docs) != len(loadedTierOf(t, oldTier, s2).Docs)+1 {
			t.Fatalf("fallback build holds %d docs, want the new node's too", len(got.Docs))
		}
	})
}

// TestTierFileVersion1: a tier file of format version 1, whose rows the
// index would take as normalized without their being so, is stale; the
// server's fallback builds the tier, and the next checkpoint writes a
// version 2 file that the boot after it reads.
func TestTierFileVersion1(t *testing.T) {
	dir, s := initAndOpen(t)
	s.Close()
	data, err := os.ReadFile(persist.TierPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	ne := binary.NativeEndian
	if v := ne.Uint32(data[8:]); v != 2 {
		t.Fatalf("Init wrote format version %d, want 2", v)
	}
	ne.PutUint32(data[8:], 1)
	body := len(data) - 4
	ne.PutUint32(data[body:], crc32.Checksum(data[:body], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(persist.TierPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	noTier(t, s2, retrieval.ErrStale, "stale: format version 1, this build reads 2")
	built := retrieval.Build(s2.Graph().View())
	sameSearches(t, "on the fallback build", pipelineOn(t, s2.Graph(), built, false),
		pipelineOn(t, smallGraph(t), nil, false), seededQueries(built.Docs))
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if data, err = os.ReadFile(persist.TierPath(dir)); err != nil {
		t.Fatal(err)
	}
	if v := ne.Uint32(data[8:]); v != 2 {
		t.Fatalf("the checkpoint wrote format version %d, want 2", v)
	}
	s3 := openStore(t, dir)
	defer s3.Close()
	if err := sameTier(loadedTier(t, s3), built); err != nil {
		t.Fatalf("the checkpointed tier differs from the fallback build: %v", err)
	}
}

// loadedTierOf reads the tier file at path whatever its stamp says.
func loadedTierOf(t *testing.T, path string, s *persist.Store) *retrieval.Tier {
	t.Helper()
	tier, err := retrieval.Read(path, retrieval.Stamp{StoreID: s.StoreID()}, smallGraph(t).View())
	if err != nil {
		t.Fatal(err)
	}
	return tier
}

// TestTierReasons: each way a tier file can be unusable leaves Open
// working and says why.
func TestTierReasons(t *testing.T) {
	t.Run("no tier file", func(t *testing.T) {
		dir, s := initAndOpen(t)
		s.Close()
		if err := os.Remove(persist.TierPath(dir)); err != nil {
			t.Fatal(err)
		}
		s2 := openStore(t, dir)
		defer s2.Close()
		noTier(t, s2, retrieval.ErrNoTier, "no tier file")
	})
	t.Run("corrupt", func(t *testing.T) {
		dir, s := initAndOpen(t)
		s.Close()
		data, err := os.ReadFile(persist.TierPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/3] ^= 1
		if err := os.WriteFile(persist.TierPath(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := openStore(t, dir)
		defer s2.Close()
		noTier(t, s2, retrieval.ErrCorrupt, "corrupt: checksum mismatch")
	})
	t.Run("drift", func(t *testing.T) {
		// A tier with the right stamp whose documents describe another
		// graph: what a changed Describe would write.
		dir, s := initAndOpen(t)
		id := s.StoreID()
		s.Close()
		other := smallGraph(t)
		if err := other.SetNodeProp(iyp.DescribableNodes(other.View())[0].NodeID, "name", "Drifted"); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(persist.TierPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := retrieval.Build(other.View()).Write(f, retrieval.Stamp{StoreID: id}); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		s2 := openStore(t, dir)
		defer s2.Close()
		noTier(t, s2, retrieval.ErrDrift, "drift: doc 0")
	})
}
