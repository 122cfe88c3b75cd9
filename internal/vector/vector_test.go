package vector

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"chatiyp/internal/embed"
	"chatiyp/internal/mmap"
)

func buildIndex(t testing.TB, texts map[int64]string) (*Index, *embed.Embedder) {
	t.Helper()
	e := embed.NewDefault()
	ix := NewIndex(e.Dim())
	for id, text := range texts {
		kind := "AS"
		if id%2 == 0 {
			kind = "Prefix"
		}
		if err := ix.Add(Doc{ID: id, Text: text, Kind: kind, Vec: e.Embed(text)}); err != nil {
			t.Fatal(err)
		}
	}
	return ix, e
}

func TestSearchFindsMostSimilar(t *testing.T) {
	ix, e := buildIndex(t, map[int64]string{
		1: "AS2497 IIJ Internet Initiative Japan backbone provider",
		3: "AS15169 Google global content network",
		5: "AS3320 Deutsche Telekom German carrier",
	})
	hits, err := ix.Search(e.Embed("Japanese internet provider IIJ"), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Doc.ID != 1 {
		t.Errorf("hits = %+v", hits)
	}
}

func TestSearchRespectsK(t *testing.T) {
	ix, e := buildIndex(t, map[int64]string{1: "a b", 3: "a c", 5: "a d", 7: "a e"})
	hits, _ := ix.Search(e.Embed("a"), 2, nil)
	if len(hits) != 2 {
		t.Errorf("len = %d", len(hits))
	}
	hits, _ = ix.Search(e.Embed("a"), 100, nil)
	if len(hits) != 4 {
		t.Errorf("k beyond size: len = %d", len(hits))
	}
	hits, _ = ix.Search(e.Embed("a"), 0, nil)
	if hits != nil {
		t.Errorf("k=0 should return nil")
	}
}

func TestSearchOrderingAndDeterminism(t *testing.T) {
	ix, e := buildIndex(t, map[int64]string{
		1: "peering at IXP", 3: "peering at IXP", 5: "totally different words here",
	})
	q := e.Embed("peering at IXP")
	first, _ := ix.Search(q, 3, nil)
	for i := 1; i < len(first); i++ {
		if first[i-1].Score < first[i].Score {
			t.Error("results not descending by score")
		}
	}
	// Ties (ids 1 and 3 identical text) break on ascending ID.
	if first[0].Doc.ID != 1 || first[1].Doc.ID != 3 {
		t.Errorf("tie break wrong: %v %v", first[0].Doc.ID, first[1].Doc.ID)
	}
	for i := 0; i < 5; i++ {
		again, _ := ix.Search(q, 3, nil)
		for j := range again {
			if again[j].Doc.ID != first[j].Doc.ID {
				t.Fatal("non-deterministic search")
			}
		}
	}
}

func TestSearchFilter(t *testing.T) {
	ix, e := buildIndex(t, map[int64]string{1: "alpha", 2: "alpha", 3: "alpha"})
	hits, _ := ix.Search(e.Embed("alpha"), 10, KindFilter("Prefix"))
	if len(hits) != 1 || hits[0].Doc.ID != 2 {
		t.Errorf("filtered hits = %+v", hits)
	}
}

func TestAddReplacesByID(t *testing.T) {
	e := embed.NewDefault()
	ix := NewIndex(e.Dim())
	ix.Add(Doc{ID: 1, Text: "old", Vec: e.Embed("old")})
	ix.Add(Doc{ID: 1, Text: "new", Vec: e.Embed("new")})
	if ix.Len() != 1 {
		t.Errorf("len = %d", ix.Len())
	}
	d, ok := ix.Get(1)
	if !ok || d.Text != "new" {
		t.Errorf("doc = %+v", d)
	}
}

func TestDimMismatch(t *testing.T) {
	ix := NewIndex(8)
	if err := ix.Add(Doc{ID: 1, Vec: make(embed.Vector, 4)}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("add err = %v", err)
	}
	if _, err := ix.Search(make(embed.Vector, 4), 1, nil); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("search err = %v", err)
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	// The heap-based top-k must agree with a full sort.
	rng := rand.New(rand.NewSource(11))
	e := embed.New(embed.Config{Dim: 32})
	ix := NewIndex(32)
	var docs []Doc
	for i := int64(1); i <= 200; i++ {
		vec := make(embed.Vector, 32)
		for j := range vec {
			vec[j] = float32(rng.NormFloat64())
		}
		d := Doc{ID: i, Vec: vec}
		docs = append(docs, d)
		ix.Add(d)
	}
	_ = e
	q := make(embed.Vector, 32)
	for j := range q {
		q[j] = float32(rng.NormFloat64())
	}
	hits, err := ix.Search(q, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	type scored struct {
		id    int64
		score float64
	}
	var all []scored
	for _, d := range docs {
		all = append(all, scored{d.ID, q.Cosine(d.Vec)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].id < all[j].id
	})
	for i := 0; i < 10; i++ {
		if hits[i].Doc.ID != all[i].id {
			t.Fatalf("rank %d: heap %d vs brute %d", i, hits[i].Doc.ID, all[i].id)
		}
	}
}

func TestConcurrentAddSearch(t *testing.T) {
	e := embed.NewDefault()
	ix := NewIndex(e.Dim())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ix.Add(Doc{ID: int64(w*1000 + i), Text: "doc", Vec: e.Embed(fmt.Sprintf("doc %d %d", w, i))})
			}
		}(w)
		go func() {
			defer wg.Done()
			q := e.Embed("doc")
			for i := 0; i < 50; i++ {
				ix.Search(q, 5, nil)
			}
		}()
	}
	wg.Wait()
	if ix.Len() != 200 {
		t.Errorf("len = %d", ix.Len())
	}
}

func TestAll(t *testing.T) {
	ix, _ := buildIndex(t, map[int64]string{5: "e", 1: "a", 3: "c"})
	all := ix.All()
	if len(all) != 3 || all[0].ID != 1 || all[2].ID != 5 {
		t.Errorf("All = %+v", all)
	}
}

func BenchmarkSearch10k(b *testing.B) {
	e := embed.NewDefault()
	ix := NewIndex(e.Dim())
	for i := int64(0); i < 10000; i++ {
		ix.Add(Doc{ID: i, Vec: e.Embed(fmt.Sprintf("autonomous system %d in country %d", i, i%200))})
	}
	q := e.Embed("autonomous system 42")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(q, 10, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExactSearchCanceled: a canceled context aborts the brute-force
// scan (the check fires every cancelCheckEvery docs, so the corpus is
// sized past one check window).
func TestExactSearchCanceled(t *testing.T) {
	ix := NewIndex(8)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < cancelCheckEvery+10; i++ {
		ix.Add(Doc{ID: int64(i), Vec: randomUnit(rng, 8)})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ix.SearchContext(ctx, randomUnit(rng, 8), 3, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExactSearchNormalizedScoring: stored vectors are normalized at
// insert, so scores must equal the cosine similarity even when callers
// hand in unnormalized vectors.
func TestExactSearchNormalizedScoring(t *testing.T) {
	ix := NewIndex(4)
	big := embed.Vector{10, 0, 0, 0} // same direction, magnitude 10
	diag := embed.Vector{3, 3, 0, 0} // 45 degrees, magnitude != 1
	ix.Add(Doc{ID: 1, Vec: big})
	ix.Add(Doc{ID: 2, Vec: diag})
	q := embed.Vector{2, 0, 0, 0} // unnormalized query
	hits, err := ix.Search(q, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hits[0].Doc.ID != 1 || math.Abs(hits[0].Score-1) > 1e-6 {
		t.Fatalf("hit0 = %+v, want ID 1 score 1", hits[0])
	}
	if want := q.Cosine(diag); math.Abs(hits[1].Score-want) > 1e-6 {
		t.Fatalf("hit1 score = %f, want cosine %f", hits[1].Score, want)
	}
}

// slabFixture returns n documents with random vectors, a third of them
// normalized in float32 like Embed's output: as an index filled by Add
// with those vectors, and as the docs and the slab of Normalize'd rows
// NewIndexFromSlab takes.
func slabFixture(t *testing.T, rng *rand.Rand, dim, n int) (*Index, []Doc, []float32) {
	t.Helper()
	added := NewIndex(dim)
	docs := make([]Doc, n)
	slab := make([]float32, n*dim)
	for i := 0; i < n; i++ {
		row := slab[i*dim : (i+1)*dim]
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
		if i%3 == 0 {
			inv := 1 / embed.Vector(row).Norm()
			for j := range row {
				row[j] = float32(float64(row[j]) * inv)
			}
		}
		docs[i] = Doc{ID: int64(1000 - i), Text: fmt.Sprint("doc ", i), Kind: []string{"AS", "IXP"}[i%2]}
		d := docs[i]
		d.Vec = embed.Vector(row).Clone()
		if err := added.Add(d); err != nil {
			t.Fatal(err)
		}
		Normalize(row)
	}
	return added, docs, slab
}

// slabEdits replace the first document of a slabFixture and append one.
var slabEdits = []Doc{
	{ID: 1000, Text: "replaced", Kind: "IXP", Vec: embed.Vector{0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4}},
	{ID: 5000, Text: "appended", Kind: "AS", Vec: embed.Vector{1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
}

// edit adds each of ds to ix, in order.
func edit(t *testing.T, ix *Index, ds ...Doc) {
	t.Helper()
	for _, d := range ds {
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
}

// sameSearches asserts that got answers 50 random queries, every other
// one filtered, with the IDs, texts and score bits of want.
func sameSearches(t *testing.T, stage string, rng *rand.Rand, got, want *Index) {
	t.Helper()
	for trial := 0; trial < 50; trial++ {
		q := make(embed.Vector, want.Dim())
		for j := range q {
			q[j] = float32(rng.NormFloat64())
		}
		var filter Filter
		if trial%2 == 1 {
			filter = KindFilter("IXP")
		}
		wh, err1 := want.Search(q, 7, filter)
		gh, err2 := got.Search(q, 7, filter)
		if err1 != nil || err2 != nil || len(gh) != len(wh) {
			t.Fatalf("%s: search errors %v / %v, %d vs %d hits", stage, err2, err1, len(gh), len(wh))
		}
		for i := range wh {
			if gh[i].Doc.ID != wh[i].Doc.ID || gh[i].Doc.Text != wh[i].Doc.Text ||
				math.Float64bits(gh[i].Score) != math.Float64bits(wh[i].Score) {
				t.Fatalf("%s, trial %d, hit %d: (%d, %v), want (%d, %v)", stage, trial, i,
					gh[i].Doc.ID, gh[i].Score, wh[i].Doc.ID, wh[i].Score)
			}
		}
	}
}

// TestIndexFromSlabEqualsAdd: an index over a slab of Normalize'd rows
// answers every search with the IDs and the score bits of an index
// filled by Add with the vectors before normalization, whether or not
// they arrive at unit length, and keeps answering so after a replace
// and an append.
func TestIndexFromSlabEqualsAdd(t *testing.T) {
	const dim, n = 16, 300
	rng := rand.New(rand.NewSource(7))
	added, docs, slab := slabFixture(t, rng, dim, n)
	bulk, err := NewIndexFromSlab(dim, docs, slab)
	if err != nil {
		t.Fatal(err)
	}
	sameSearches(t, "after the bulk load", rng, bulk, added)
	edit(t, added, slabEdits...)
	edit(t, bulk, slabEdits...)
	if bulk.Len() != n+1 {
		t.Fatalf("Len after a replace and an append = %d, want %d", bulk.Len(), n+1)
	}
	sameSearches(t, "after Add on the bulk-loaded index", rng, bulk, added)

	if _, err := NewIndexFromSlab(dim, make([]Doc, 3), make([]float32, 2*dim)); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("short slab: err = %v, want ErrDimMismatch", err)
	}
	if _, err := NewIndexFromSlab(dim, []Doc{{ID: 1}, {ID: 1}}, make([]float32, 2*dim)); err == nil {
		t.Error("duplicate document IDs were accepted")
	}
}

// TestIndexFromSlabReadOnly: indexes over one slab mapped read-only
// from a file search, take a replace and an append in either order, and
// answer as an index filled by Add does, without writing the mapping (a
// write faults) or the docs they were given.
func TestIndexFromSlabReadOnly(t *testing.T) {
	const dim, n = 16, 300
	rng := rand.New(rand.NewSource(9))
	added, docs, slab := slabFixture(t, rng, dim, n)
	edited, _, _ := slabFixture(t, rand.New(rand.NewSource(9)), dim, n)
	edit(t, edited, slabEdits...)
	// One spare row after the slab, which the slab's capacity reaches:
	// an append must not write it either.
	var file bytes.Buffer
	if err := binary.Write(&file, binary.NativeEndian, append(slab, make([]float32, dim)...)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "slab")
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := mmap.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mapped := unsafe.Slice((*float32)(unsafe.Pointer(&m.Data[0])), len(slab)+dim)[:len(slab)]
	given := slices.Clone(docs)

	untouched, err := NewIndexFromSlab(dim, docs, mapped)
	if err != nil {
		t.Fatal(err)
	}
	sameSearches(t, "on the mapping", rng, untouched, added)
	for _, order := range [][]Doc{slabEdits, {slabEdits[1], slabEdits[0]}} {
		ix, err := NewIndexFromSlab(dim, docs, mapped)
		if err != nil {
			t.Fatal(err)
		}
		edit(t, ix, order...)
		sameSearches(t, fmt.Sprintf("after %q, %q", order[0].Text, order[1].Text), rng, ix, edited)
	}
	sameSearches(t, "beside the edited indexes", rng, untouched, added)

	if !bytes.Equal(m.Data, file.Bytes()) {
		t.Fatal("an index wrote into its mapped slab")
	}
	if !slices.EqualFunc(docs, given, func(a, b Doc) bool { return a.ID == b.ID && a.Text == b.Text && a.Kind == b.Kind }) {
		t.Fatal("an index wrote into the docs it was given")
	}
}

// TestIndexFromSlabSharedConcurrently: an index keeps answering from a
// slab it shares with another index that takes writes at the same time
// (run under -race: a write into the shared slab or docs is a race).
func TestIndexFromSlabSharedConcurrently(t *testing.T) {
	const dim, n = 16, 300
	added, docs, slab := slabFixture(t, rand.New(rand.NewSource(11)), dim, n)
	shared, err := NewIndexFromSlab(dim, docs, slab)
	if err != nil {
		t.Fatal(err)
	}
	edited, err := NewIndexFromSlab(dim, docs, slab)
	if err != nil {
		t.Fatal(err)
	}
	q := embed.Vector{0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4} // the replaced document's vector
	want, err := added.Search(q, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			for _, d := range slabEdits {
				if err := edited.Add(d); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 200; i++ {
		got, err := shared.Search(q, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j].Doc.ID != want[j].Doc.ID || got[j].Doc.Text != want[j].Doc.Text ||
				math.Float64bits(got[j].Score) != math.Float64bits(want[j].Score) {
				t.Fatalf("search %d, hit %d: (%d, %q, %v), want (%d, %q, %v)", i, j,
					got[j].Doc.ID, got[j].Doc.Text, got[j].Score, want[j].Doc.ID, want[j].Doc.Text, want[j].Score)
			}
		}
	}
	wg.Wait()
}
