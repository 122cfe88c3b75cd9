// Package vector implements the dense-vector retrieval tier behind
// ChatIYP's VectorContextRetriever: documents with metadata are stored
// alongside their embeddings, and a Searcher returns the top-k most
// cosine-similar entries, optionally filtered by metadata.
//
// Two implementations share the Searcher interface:
//
//   - Index: an exact brute-force scan with a bounded min-heap. Stored
//     vectors are L2-normalized at insert, so per-document scoring is a
//     pure dot product (no magnitude recompute). Exact results make it
//     the recall/equivalence reference path.
//   - HNSW (hnsw.go): an approximate hierarchical navigable small world
//     graph for sub-linear search at large corpus sizes.
//
// Both are safe for concurrent use and respect context cancellation:
// a dead request stops paying for its scan.
package vector

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"chatiyp/internal/embed"
)

// Doc is one indexed document.
type Doc struct {
	// ID is the caller's identifier (e.g. a graph node ID).
	ID int64
	// Text is the raw document text the vector was computed from.
	Text string
	// Kind groups documents for filtered search (e.g. the node label).
	Kind string
	// Vec is the document embedding.
	Vec embed.Vector
}

// Hit is one search result.
type Hit struct {
	Doc   Doc
	Score float64 // cosine similarity to the query
}

// ErrDimMismatch is returned when a vector's width differs from the
// index's.
var ErrDimMismatch = errors.New("vector: dimension mismatch")

// Filter restricts a search to matching documents. A nil Filter matches
// everything.
type Filter func(Doc) bool

// KindFilter matches documents of one kind.
func KindFilter(kind string) Filter {
	return func(d Doc) bool { return d.Kind == kind }
}

// Searcher is the retrieval interface shared by the exact Index and the
// approximate HNSW graph: insert documents, search the k most similar.
// Implementations are safe for concurrent use, break score ties on
// ascending document ID, and abort in-flight scans when ctx ends (the
// returned error wraps the context cause).
type Searcher interface {
	Add(Doc) error
	Len() int
	Dim() int
	SearchContext(ctx context.Context, query embed.Vector, k int, filter Filter) ([]Hit, error)
}

// cancelCheckEvery is how many documents (exact scan) or candidate
// expansions (HNSW) a search visits between context checks — the same
// granularity the Cypher matcher uses, cheap enough to be free and
// tight enough that cancellation lands in microseconds.
const cancelCheckEvery = 256

// canceled wraps the context cause so errors.Is(err, context.Canceled)
// / context.DeadlineExceeded hold and callers can normalize onto their
// own cancellation identity.
func canceled(ctx context.Context) error {
	return fmt.Errorf("vector: search canceled: %w", context.Cause(ctx))
}

// normalized returns the L2-normalized form of v. Vectors that are
// already unit length (the embedder's output always is) are returned
// as-is — no copy; anything else is scaled into a fresh slice. Zero
// vectors pass through unchanged.
func normalized(v embed.Vector) embed.Vector {
	inv, ok := rescale(v)
	if !ok {
		return v
	}
	out := v.Clone()
	scale(out, inv)
	return out
}

// Normalize scales v to unit L2 length in place, with the arithmetic
// Add stores a vector with, so a row Normalize wrote is bit for bit the
// row Add would store. Zero vectors, and vectors within 1e-9 of unit
// length, are left as they are.
func Normalize(v embed.Vector) {
	if inv, ok := rescale(v); ok {
		scale(v, inv)
	}
}

func scale(v embed.Vector, inv float64) {
	for i, x := range v {
		v[i] = float32(float64(x) * inv)
	}
}

// rescale returns the factor that brings v to unit length, and false
// when v needs none (it is zero, or within 1e-9 of unit length).
func rescale(v embed.Vector) (inv float64, ok bool) {
	n := v.Norm()
	if n == 0 || math.Abs(n-1) < 1e-9 {
		return 0, false
	}
	return 1 / n, true
}

// Index is an exact top-k cosine index. Safe for concurrent use.
type Index struct {
	mu   sync.RWMutex
	dim  int
	docs []Doc
	// slab holds the L2-normalized vector of docs[i] at
	// [i*dim, (i+1)*dim): one contiguous, pointer-free block the scan
	// walks front to back. Cosine similarity against a normalized query
	// is then a pure dot product — the scan never recomputes magnitudes.
	slab []float32
	// borrowed is set while docs and slab are the slices
	// NewIndexFromSlab was given, which the index must not write: the
	// first replace copies both to the heap. Their capacity is clipped
	// to their length, so the first append copies them too.
	borrowed bool
	byID     map[int64]int
}

var _ Searcher = (*Index)(nil)

// NewIndex returns an empty index for vectors of the given width.
func NewIndex(dim int) *Index {
	return &Index{dim: dim, byID: make(map[int64]int)}
}

// NewIndexFromSlab returns an index over docs whose vectors are the
// rows of slab: row i, slab[i*dim:(i+1)*dim], belongs to docs[i] and is
// already normalized (Normalize), as Add would store it. The index
// borrows both slices instead of copying them and never writes them:
// slab may be a read-only file mapping, and any number of indexes may
// share one slab. An Add that replaces a document copies both to the
// heap first. docs[i].Vec is not read. Search results equal those of an
// index filled by Add with the same vectors in the same order. Document
// IDs must be distinct.
func NewIndexFromSlab(dim int, docs []Doc, slab []float32) (*Index, error) {
	if len(slab) != len(docs)*dim {
		return nil, fmt.Errorf("%w: slab holds %d values, %d docs need %d", ErrDimMismatch, len(slab), len(docs), len(docs)*dim)
	}
	ix := &Index{dim: dim, docs: slices.Clip(docs), slab: slices.Clip(slab), borrowed: true, byID: make(map[int64]int, len(docs))}
	for i := range docs {
		if _, dup := ix.byID[docs[i].ID]; dup {
			return nil, fmt.Errorf("vector: duplicate document ID %d in bulk load", docs[i].ID)
		}
		ix.byID[docs[i].ID] = i
	}
	return ix, nil
}

// row returns the normalized vector of docs[i]. Caller holds ix.mu.
func (ix *Index) row(i int) embed.Vector {
	return ix.slab[i*ix.dim : (i+1)*ix.dim : (i+1)*ix.dim]
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// Dim returns the vector width.
func (ix *Index) Dim() int { return ix.dim }

// Add inserts or replaces a document (keyed by Doc.ID).
func (ix *Index) Add(d Doc) error {
	if len(d.Vec) != ix.dim {
		return fmt.Errorf("%w: got %d, index is %d", ErrDimMismatch, len(d.Vec), ix.dim)
	}
	nv := normalized(d.Vec)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if pos, ok := ix.byID[d.ID]; ok {
		if ix.borrowed {
			ix.docs, ix.slab, ix.borrowed = slices.Clone(ix.docs), slices.Clone(ix.slab), false
		}
		ix.docs[pos] = d
		copy(ix.row(pos), nv)
		return nil
	}
	ix.byID[d.ID] = len(ix.docs)
	ix.docs = append(ix.docs, d)
	ix.slab = append(ix.slab, nv...)
	ix.borrowed = false // a borrowed slice's clipped capacity made both appends copy
	return nil
}

// Get returns the document with the given ID.
func (ix *Index) Get(id int64) (Doc, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	pos, ok := ix.byID[id]
	if !ok {
		return Doc{}, false
	}
	return ix.docs[pos], true
}

// Search returns the k documents most similar to the query vector, in
// descending score order. Ties break on ascending document ID so results
// are deterministic.
func (ix *Index) Search(query embed.Vector, k int, filter Filter) ([]Hit, error) {
	return ix.SearchContext(context.Background(), query, k, filter)
}

// SearchContext is Search under a cancellation context: the scan checks
// ctx every cancelCheckEvery documents and aborts with an error
// wrapping the context cause, so a dead request does not pay for the
// rest of the corpus.
func (ix *Index) SearchContext(ctx context.Context, query embed.Vector, k int, filter Filter) ([]Hit, error) {
	if len(query) != ix.dim {
		return nil, fmt.Errorf("%w: query %d, index %d", ErrDimMismatch, len(query), ix.dim)
	}
	if k <= 0 {
		return nil, nil
	}
	q := normalized(query)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	h := make(hitHeap, 0, k)
	for i, d := range ix.docs {
		if i%cancelCheckEvery == 0 && ctx.Err() != nil {
			return nil, canceled(ctx)
		}
		if filter != nil && !filter(d) {
			continue
		}
		score := q.Dot(ix.row(i))
		if h.Len() < k {
			heap.Push(&h, Hit{Doc: d, Score: score})
			continue
		}
		if better(Hit{Doc: d, Score: score}, h[0]) {
			h[0] = Hit{Doc: d, Score: score}
			heap.Fix(&h, 0)
		}
	}
	out := make([]Hit, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Hit)
	}
	return out, nil
}

// better reports whether a should rank above b.
func better(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Doc.ID < b.Doc.ID
}

// hitHeap is a min-heap on ranking order (worst hit at the root).
type hitHeap []Hit

func (h hitHeap) Len() int           { return len(h) }
func (h hitHeap) Less(i, j int) bool { return better(h[j], h[i]) }
func (h hitHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *hitHeap) Push(x any)        { *h = append(*h, x.(Hit)) }
func (h *hitHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// All returns every document sorted by ID (primarily for tests and
// snapshot export).
func (ix *Index) All() []Doc {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := append([]Doc(nil), ix.docs...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
