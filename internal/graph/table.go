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
// pages: a publish copies the directory and clones only the pages a
// dirty ID falls in, so it costs O(V/pageSize + touched pages) instead
// of O(V). Pages are never written once their epoch is published —
// except the entity slots of a cold columnar epoch, which its readers
// fill by CAS (colLazy) and which no other epoch shares. The last page
// holds only the slots below len(), so a small graph never allocates a
// whole page.
type table[T any] struct {
	pages [][]T
	n     int64
}

// newTable returns a zeroed table of n slots.
func newTable[T any](n int64) table[T] { return (&table[T]{}).edit(n).table }

// len is the number of slots: every valid index is in [0, len).
func (t *table[T]) len() int64 { return t.n }

// at addresses the slot of a valid index (callers bounds-check
// against len).
func (t *table[T]) at(id int64) *T { return &t.pages[id>>pageBits][id&pageMask] }

// tableEdit is a table being derived from its predecessor during one
// publish: owned marks the pages this edit allocated, the only ones it
// may write.
type tableEdit[T any] struct {
	table[T]
	owned []bool
}

// edit starts the successor of t with n slots (n ≥ t.len()). Every
// page that keeps its length is shared; pages that change length — a
// partial last page that grows, and the pages past it — are allocated
// now and owned.
func (t *table[T]) edit(n int64) *tableEdit[T] {
	np := int((n + pageMask) >> pageBits)
	e := &tableEdit[T]{table: table[T]{pages: make([][]T, np), n: n}, owned: make([]bool, np)}
	copy(e.pages, t.pages)
	for p := max(len(t.pages)-1, 0); p < np; p++ {
		if want := int(min(pageSize, n-int64(p)<<pageBits)); len(e.pages[p]) != want {
			pg := make([]T, want)
			copy(pg, e.pages[p])
			e.pages[p], e.owned[p] = pg, true
		}
	}
	return e
}

// set writes one slot, cloning its page first when it is still shared
// with the predecessor.
func (e *tableEdit[T]) set(id int64, v T) {
	p := id >> pageBits
	if !e.owned[p] {
		e.pages[p] = slices.Clone(e.pages[p])
		e.owned[p] = true
	}
	e.pages[p][id&pageMask] = v
}
