package graph

import "slices"

// pageBits sizes the pages of an epoch table: 1024 slots, so a publish
// that touches one ID clones 8 KiB of entity pointers or 96 KiB of
// adjacency rather than the whole table.
const (
	pageBits = 10
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// table is one epoch's ID-indexed array (IDs are dense and assigned
// monotonically), cut into fixed pages behind a directory. Epochs share
// pages: an edit copies the directory and clones only the pages it
// writes, so deriving the next epoch costs O(V/pageSize + touched
// pages) instead of O(V). Pages are never written once their epoch is
// published — except the cold pages of a columnar load, whose empty
// slots readers fill by CAS (colLazy). The last page holds only the
// slots below len(), so a small graph never allocates a whole page.
type table[T any] struct {
	pages [][]T
	// cold marks the pages a cold columnar epoch shares, whose slots
	// are read and filled only atomically; nil when there are none.
	cold []bool
	n    int64
}

// newTable returns a zeroed table of n slots.
func newTable[T any](n int64) table[T] { return (&table[T]{}).edit(n, nil).table }

// len is the number of slots: every valid index is in [0, len).
func (t *table[T]) len() int64 { return t.n }

// at addresses the slot of a valid index (callers bounds-check
// against len).
func (t *table[T]) at(id int64) *T { return &t.pages[id>>pageBits][id&pageMask] }

// isCold reports whether the slot of a valid index lies in a cold page.
// Pages past the flags were added since the load, and are warm.
func (t *table[T]) isCold(id int64) bool {
	p := int(id >> pageBits)
	return p < len(t.cold) && t.cold[p]
}

// tableEdit is the successor of a table being derived from it: owned
// marks the pages this edit allocated, the only ones it may write.
type tableEdit[T any] struct {
	table[T]
	owned     []bool
	coldOwned bool // cold is this edit's own copy
	// fill reads one slot of a cold page the way the page's readers do
	// (see colLazy); cloning a cold page copies it slot by slot through
	// fill, never by a plain read.
	fill func(id int64) T
}

// edit starts the successor of t with n slots (n ≥ t.len()). Every
// page that keeps its length is shared.
func (t *table[T]) edit(n int64, fill func(id int64) T) *tableEdit[T] {
	e := &tableEdit[T]{
		table: table[T]{pages: append([][]T(nil), t.pages...), cold: t.cold, n: t.n},
		owned: make([]bool, len(t.pages)),
		fill:  fill,
	}
	e.resize(n)
	return e
}

// resize grows the edit to n slots (a no-op when n ≤ len). The pages
// that change length — a partial last page that grows, and the pages
// past it — are reallocated (or, when this edit owns one with room,
// extended) and owned.
func (e *tableEdit[T]) resize(n int64) {
	if n <= e.n {
		return
	}
	np := int((n + pageMask) >> pageBits)
	for p := max(len(e.pages)-1, 0); p < np; p++ {
		want := int(min(pageSize, n-int64(p)<<pageBits))
		if p == len(e.pages) {
			e.pages, e.owned = append(e.pages, nil), append(e.owned, true)
		}
		pg := e.pages[p]
		switch {
		case len(pg) == want:
		case e.owned[p] && cap(pg) >= want:
			e.pages[p] = pg[:want]
		default:
			// Room to double, so that an edit growing one slot at a time
			// copies each page O(log pageSize) times.
			e.pages[p] = e.copyPage(p, make([]T, want, min(pageSize, max(2*want, 8))))
			e.owned[p] = true
		}
	}
	e.n = n
}

// copyPage copies page p into dst (which is at least as long) and
// returns dst; a cold page is copied through fill and is warm from then
// on.
func (e *tableEdit[T]) copyPage(p int, dst []T) []T {
	src := e.pages[p]
	if !e.isCold(int64(p) << pageBits) {
		copy(dst, src)
		return dst
	}
	base := int64(p) << pageBits
	for i := range src {
		dst[i] = e.fill(base + int64(i))
	}
	if !e.coldOwned {
		e.cold, e.coldOwned = slices.Clone(e.cold), true
	}
	e.cold[p] = false
	return dst
}

// mut addresses the slot of a valid index for writing, cloning its page
// first when it is still shared with the predecessor.
func (e *tableEdit[T]) mut(id int64) *T {
	p := int(id >> pageBits)
	if !e.owned[p] {
		e.pages[p] = e.copyPage(p, make([]T, len(e.pages[p])))
		e.owned[p] = true
	}
	return &e.pages[p][id&pageMask]
}

// set writes one slot (see mut).
func (e *tableEdit[T]) set(id int64, v T) { *e.mut(id) = v }

// coldTable returns a table of n empty slots, every page cold.
func coldTable[T any](n int64) table[T] {
	t := newTable[T](n)
	t.cold = make([]bool, len(t.pages))
	for p := range t.cold {
		t.cold[p] = true
	}
	return t
}
