package graph

// This file is the lock-free read path: immutable, epoch-pinned
// snapshots of the graph published through an atomic pointer.
//
// The locked Graph API takes the global RWMutex on every call and
// rebuilds filter maps and sorted slices per hop, so concurrent
// traversals serialize on one cache line no matter how many cores run
// them. A View pins one published epoch instead: every accessor is a
// plain read of immutable state — no locks, no per-hop allocation —
// and typed expansion is a bucket lookup plus a linear walk because
// adjacency is stored pre-grouped by relationship type and pre-sorted
// by relationship ID.
//
// The epochs are the graph's only representation. The writer holds the
// next one open (graph.go): a write clones the table page, and the
// adjacency entry or index bucket, the first time it touches it, and
// records the node and relationship IDs it dirtied; the locked API reads
// that open edit, so write queries see their own writes. The first View
// pinned after a write freezes the edit under the mutex and publishes it
// atomically. Freezing costs O(dirty), not O(graph): the paged tables
// (table.go) share every page no write fell in, label postings and the
// node list change by merging the dirty nodes' membership changes, and
// only touched index buckets are sorted. A fresh graph starts from an
// empty epoch and a cold columnar load from the loaded one; both are
// predecessors like any other. Readers holding older epochs are
// unaffected: an epoch's entities are copies the writer never writes
// again. Consecutive writes with no interleaved read cost nothing beyond
// the edit itself — publication is lazy and amortizes over write bursts.

import (
	"cmp"
	"maps"
	"slices"
	"strings"
	"time"
)

// Reader is the uniform read interface over a graph, implemented by
// *Graph (locked, always-current reads — what write queries need to
// observe their own effects) and *View (lock-free, epoch-pinned
// snapshot reads — what concurrent read-only queries traverse).
// Slices returned by Reader methods must be treated as read-only: the
// View implementation returns its internal state without copying.
type Reader interface {
	// Node returns the node with the given ID, or nil when absent.
	Node(id int64) *Node
	// Relationship returns the relationship with the given ID, or nil.
	Relationship(id int64) *Relationship
	// IncidentDo calls fn for every relationship incident to the node
	// in the given direction, filtered to types when non-empty, in
	// ascending relationship-ID order (each relationship once, even
	// self-loops under Both). fn returning false stops the iteration;
	// the return value reports whether iteration ran to completion.
	IncidentDo(nodeID int64, dir Direction, types []string, fn func(*Relationship) bool) bool
	// Degree returns the number of relationships IncidentDo would
	// visit, without visiting them.
	Degree(nodeID int64, dir Direction, types ...string) int
	// NodesByLabel returns the IDs of nodes with the label, ascending.
	NodesByLabel(label string) []int64
	// NodesByLabelProp returns the IDs of nodes with the label whose
	// property equals value, ascending; the second result reports
	// whether a property index served the lookup.
	NodesByLabelProp(label, property string, value any) ([]int64, bool)
	// HasIndex reports whether a property index exists on (label,
	// property).
	HasIndex(label, property string) bool
	// AllNodeIDs returns every node ID in ascending order.
	AllNodeIDs() []int64
}

// Compile-time interface checks: the locked graph and the snapshot
// view stay interchangeable behind Reader.
var (
	_ Reader = (*Graph)(nil)
	_ Reader = (*View)(nil)
)

// typeBucket holds one relationship type's incident rel IDs in
// ascending order. Buckets hold IDs, not pointers, deliberately: the
// epoch's adjacency is then pointer-free memory the garbage collector
// never scans, which keeps a pinned snapshot nearly invisible to GC
// cycles of an allocation-heavy query workload. Iteration resolves
// IDs through the epoch's relationship table — one bounds-checked
// array read per hop.
type typeBucket struct {
	typ string
	ids []int64
}

// dirAdj is one direction's adjacency of one node: the full incident
// ID list in ascending order plus the same IDs bucketed by type, so
// typed expansion needs no filtering and untyped expansion no merging.
type dirAdj struct {
	all    []int64
	byType []typeBucket
}

// bucket returns the rel IDs of one type (nil when the node has none).
// Nodes have few distinct incident types, so a linear scan beats a map
// and allocates nothing.
func (d *dirAdj) bucket(typ string) []int64 {
	for i := range d.byType {
		if d.byType[i].typ == typ {
			return d.byType[i].ids
		}
	}
	return nil
}

// add files rel id of type typ, keeping the full list and its bucket
// ascending and the buckets in canonical order. Only an edit's own
// entry is written (see Graph.adjForWriteLocked).
func (d *dirAdj) add(id int64, typ string) {
	d.all = insertAscending(d.all, id)
	for i := range d.byType {
		if b := &d.byType[i]; b.typ == typ {
			b.ids = insertAscending(b.ids, id)
			if b.ids[0] == id {
				d.sortBuckets()
			}
			return
		}
	}
	d.byType = append(d.byType, typeBucket{typ: typ, ids: []int64{id}})
	d.sortBuckets()
}

// remove withdraws rel id of type typ, dropping its bucket when empty.
func (d *dirAdj) remove(id int64, typ string) {
	d.all = removeID(d.all, id)
	for i := range d.byType {
		if b := &d.byType[i]; b.typ == typ {
			first := b.ids[0] == id
			if b.ids = removeID(b.ids, id); len(b.ids) == 0 {
				d.byType = slices.Delete(d.byType, i, i+1)
			} else if first {
				d.sortBuckets()
			}
			return
		}
	}
}

// sortBuckets puts the buckets in canonical order — by first ID, the
// order in which a walk of the full list meets their types — so that an
// entry edited in place equals one built from scratch, and encodes to
// the same bytes.
func (d *dirAdj) sortBuckets() {
	slices.SortFunc(d.byType, func(a, b typeBucket) int { return cmp.Compare(a.ids[0], b.ids[0]) })
}

// clone is a deep copy: an edit writes only the lists it owns.
func (d dirAdj) clone() dirAdj {
	c := dirAdj{all: slices.Clone(d.all), byType: slices.Clone(d.byType)}
	for i := range c.byType {
		c.byType[i].ids = slices.Clone(c.byType[i].ids)
	}
	return c
}

// nodeAdj is the per-node adjacency of one epoch.
type nodeAdj struct {
	out dirAdj
	in  dirAdj
}

// lists appends the sorted rel-ID lists a (direction, types) selection
// draws from.
func (a *nodeAdj) lists(dst [][]int64, dir Direction, types []string) [][]int64 {
	if dir == Outgoing || dir == Both {
		dst = gatherLists(dst, &a.out, types)
	}
	if dir == Incoming || dir == Both {
		dst = gatherLists(dst, &a.in, types)
	}
	return dst
}

// degree counts the relationships of a (direction, types) selection
// without resolving one. Single-direction degrees are O(#types) bucket
// length sums; Both merges the ID lists to count self-loops once.
func (a *nodeAdj) degree(dir Direction, types []string) int {
	if dir == Both {
		var listsArr [8][]int64
		n := 0
		mergeIDs(a.lists(listsArr[:0], Both, types), func(int64) bool { n++; return true })
		return n
	}
	d := &a.out
	if dir == Incoming {
		d = &a.in
	}
	if len(types) == 0 {
		return len(d.all)
	}
	n := 0
	for i, t := range types {
		if slices.Contains(types[:i], t) {
			continue // duplicate type in the filter counts once
		}
		n += len(d.bucket(t))
	}
	return n
}

// readState is one immutable epoch of the graph. Everything in it is
// either freshly built at publication or shared with the previous
// epoch; nothing is ever mutated after publication. Node, relationship
// and adjacency tables are ID-indexed paged tables (IDs are dense,
// monotonically assigned), so lookups are bounds-checked array reads.
type readState struct {
	version  uint64
	nodes    table[*Node]         // nil slot = absent
	rels     table[*Relationship] // nil slot = absent
	adj      table[nodeAdj]
	allNodes []int64 // ascending
	byLabel  map[string][]int64
	labels   []string // sorted, non-empty labels only
	relTypes []string // sorted
	// propIndex holds one entry per indexed (label, property) pair —
	// possibly with no buckets — mapping value keys to ascending IDs.
	propIndex map[indexPair]map[string][]int64
	nodeCount int
	relCount  int
	// relTypeCount is the live relationship count per type, so stats
	// never walk the relationship table. Never nil.
	relTypeCount map[string]int
	// nextNode and nextRel freeze the ID allocators at publication so a
	// snapshot serialized from a pinned View (colfile.go) restores
	// allocator state without touching the live graph. They are also
	// the lengths of the node, relationship and adjacency tables.
	nextNode int64
	nextRel  int64
	// lazy, when non-nil, is the columnar load this epoch descends
	// from: the slots of the entity tables' cold pages start nil and
	// materialize on first access (see colfile_decode.go). Every slot
	// access goes through nodeAt/relAt, which read cold pages
	// atomically, because concurrent readers CAS-install materialized
	// entities.
	lazy *colLazy
}

// indexPair names one property index.
type indexPair struct{ label, prop string }

// emptyEpoch is the predecessor of a fresh graph's first publish.
func emptyEpoch() *readState {
	return &readState{
		nodes: newTable[*Node](1), rels: newTable[*Relationship](1), adj: newTable[nodeAdj](1),
		nextNode: 1, nextRel: 1,
		byLabel:      map[string][]int64{},
		propIndex:    map[indexPair]map[string][]int64{},
		relTypeCount: map[string]int{},
	}
}

// nodeAt resolves the node-table slot at a valid index (caller bounds-
// checks), materializing it on demand in a cold page.
func (rs *readState) nodeAt(id int64) *Node {
	if rs.nodes.isCold(id) {
		return rs.lazy.node(rs.nodes.at(id), id)
	}
	return *rs.nodes.at(id)
}

// relAt is the relationship counterpart of nodeAt.
func (rs *readState) relAt(id int64) *Relationship {
	if rs.rels.isCold(id) {
		return rs.lazy.rel(rs.rels.at(id), id)
	}
	return *rs.rels.at(id)
}

// node returns node id, or nil when absent.
func (rs *readState) node(id int64) *Node {
	if id < 0 || id >= rs.nodes.len() {
		return nil
	}
	return rs.nodeAt(id)
}

// rel returns relationship id, or nil when absent.
func (rs *readState) rel(id int64) *Relationship {
	if id < 0 || id >= rs.rels.len() {
		return nil
	}
	return rs.relAt(id)
}

// hasNode reports whether node id is present, materializing nothing.
func (rs *readState) hasNode(id int64) bool {
	if id < 0 || id >= rs.nodes.len() {
		return false
	}
	if rs.nodes.isCold(id) {
		return rs.lazy.nodePresent(id)
	}
	return *rs.nodes.at(id) != nil
}

// hasRel is the relationship counterpart of hasNode.
func (rs *readState) hasRel(id int64) bool {
	if id < 0 || id >= rs.rels.len() {
		return false
	}
	if rs.rels.isCold(id) {
		return rs.lazy.relRow[id] != 0
	}
	return *rs.rels.at(id) != nil
}

// adjOf returns node id's adjacency, or nil when out of range.
func (rs *readState) adjOf(id int64) *nodeAdj {
	if id < 0 || id >= rs.adj.len() {
		return nil
	}
	return rs.adj.at(id)
}

// View is a pinned epoch: a consistent, immutable snapshot of the
// graph taken at one version. All methods are lock-free and safe for
// concurrent use; a View never observes writes made after it was
// pinned. Pin one View per query (not per hop) with Graph.View.
type View struct {
	rs *readState
}

// View pins the current epoch. The fast path — no write since the
// last publication — is two atomic loads. After a write, the first
// View call freezes the open edit and publishes it under the graph
// mutex (see the package comment for the cost model); subsequent calls
// are lock-free again until the next write.
func (g *Graph) View() *View {
	g.viewPins.Add(1)
	if rs := g.published.Load(); rs.version == g.version.Load() {
		return &View{rs: rs}
	}
	g.mu.Lock()
	rs := g.publishLocked()
	g.mu.Unlock()
	return &View{rs: rs}
}

// SnapshotStats reports the cumulative snapshot counters of this
// graph: how many Views were pinned, how many epochs were actually
// published, and the wall time publishing took. A high pin/publish
// ratio means the read path is running lock-free; publishes track write
// churn as observed by readers.
func (g *Graph) SnapshotStats() (viewPins, snapshotPublishes, publishNanos int64) {
	return g.viewPins.Load(), g.snapshotPublishes.Load(), g.publishNanos.Load()
}

// Version returns the version of the graph this view was pinned at.
func (v *View) Version() uint64 { return v.rs.version }

// Node returns the node with the given ID, or nil when absent.
func (v *View) Node(id int64) *Node { return v.rs.node(id) }

// Relationship returns the relationship with the given ID, or nil.
func (v *View) Relationship(id int64) *Relationship { return v.rs.rel(id) }

// NodeCount returns the number of nodes in the pinned epoch.
func (v *View) NodeCount() int { return v.rs.nodeCount }

// RelationshipCount returns the number of relationships.
func (v *View) RelationshipCount() int { return v.rs.relCount }

// Labels returns the node labels present, sorted. Read-only.
func (v *View) Labels() []string { return v.rs.labels }

// RelationshipTypes returns the relationship types present, sorted.
// Read-only.
func (v *View) RelationshipTypes() []string { return v.rs.relTypes }

// AllNodeIDs returns every node ID in ascending order. Read-only; its
// capacity is clipped, because later epochs append past its end.
func (v *View) AllNodeIDs() []int64 { return slices.Clip(v.rs.allNodes) }

// NodesByLabel returns the IDs of nodes with the label, ascending.
// Read-only and clipped, like AllNodeIDs.
func (v *View) NodesByLabel(label string) []int64 { return slices.Clip(v.rs.byLabel[label]) }

// HasIndex reports whether a property index exists on (label,
// property).
func (v *View) HasIndex(label, property string) bool {
	_, ok := v.rs.propIndex[indexPair{label, property}]
	return ok
}

// Indexes returns every (label, property) pair with an index, sorted
// by label then property.
func (v *View) Indexes() [][2]string {
	var out [][2]string
	for p := range v.rs.propIndex {
		out = append(out, [2]string{p.label, p.prop})
	}
	slices.SortFunc(out, func(a, b [2]string) int {
		return cmp.Or(strings.Compare(a[0], b[0]), strings.Compare(a[1], b[1]))
	})
	return out
}

// ForEachNode calls fn for every node in ascending ID order until fn
// returns false.
func (v *View) ForEachNode(fn func(*Node) bool) {
	for _, id := range v.rs.allNodes {
		if !fn(v.rs.nodeAt(id)) {
			return
		}
	}
}

// ForEachRelationship calls fn for every relationship in ascending ID
// order until fn returns false.
func (v *View) ForEachRelationship(fn func(*Relationship) bool) {
	for id := int64(1); id < v.rs.rels.len(); id++ {
		if r := v.rs.relAt(id); r != nil && !fn(r) {
			return
		}
	}
}

// NodesByLabelProp returns the IDs of nodes with the given label whose
// property equals value, in ascending ID order, from the epoch's
// pre-sorted index buckets when an index exists (read-only slice) and
// by label scan otherwise.
func (v *View) NodesByLabelProp(label, property string, value any) ([]int64, bool) {
	nv, err := NormalizeValue(value)
	if err != nil {
		return nil, false
	}
	rs := v.rs
	if byVal, ok := rs.propIndex[indexPair{label, property}]; ok {
		return byVal[ValueKey(nv)], true
	}
	return scanLabelProp(rs.byLabel[label], rs.nodeAt, property, nv), false
}

// scanLabelProp filters the nodes ids by property equality: the
// fallback of a lookup no index serves.
func scanLabelProp(ids []int64, node func(int64) *Node, property string, nv Value) []int64 {
	var out []int64
	for _, id := range ids {
		if pv, ok := node(id).Props.Get(property); ok && ValuesEqual(pv, nv) {
			out = append(out, id)
		}
	}
	return out
}

// IncidentDo iterates the relationships incident to the node in the
// given direction (filtered to types when non-empty) in ascending
// relationship-ID order, calling fn for each. It is the zero-
// allocation expansion primitive: typed single-direction expansion is
// a bucket lookup plus a linear walk, untyped expansion walks the
// pre-merged list, and only multi-list shapes (Both, multiple types)
// pay a small in-place merge. fn returning false stops the iteration;
// the return value reports whether it ran to completion.
func (v *View) IncidentDo(nodeID int64, dir Direction, types []string, fn func(*Relationship) bool) bool {
	adj := v.rs.adjOf(nodeID)
	if adj == nil {
		return true
	}
	var listsArr [8][]int64
	lists := adj.lists(listsArr[:0], dir, types)
	if len(lists) == 1 {
		for _, id := range lists[0] {
			if !fn(v.rs.relAt(id)) {
				return false
			}
		}
		return true
	}
	return mergeIDs(lists, func(id int64) bool { return fn(v.rs.relAt(id)) })
}

// gatherLists appends the sorted rel-ID lists the (direction, types)
// selection draws from.
func gatherLists(lists [][]int64, d *dirAdj, types []string) [][]int64 {
	if len(types) == 0 {
		if len(d.all) > 0 {
			lists = append(lists, d.all)
		}
		return lists
	}
	for _, t := range types {
		if b := d.bucket(t); len(b) > 0 {
			lists = append(lists, b)
		}
	}
	return lists
}

// mergeIDs visits the union of sorted rel-ID lists in ascending order,
// each distinct ID once (a self-loop appears in both the out and in
// lists; equal heads are consumed together). fn returning false stops
// the walk; the result reports whether it ran to completion.
func mergeIDs(lists [][]int64, fn func(int64) bool) bool {
	var idxArr [8]int
	var idx []int
	if len(lists) <= len(idxArr) {
		idx = idxArr[:len(lists)]
	} else {
		idx = make([]int, len(lists))
	}
	for {
		best := -1
		var bestID int64
		for i, l := range lists {
			if idx[i] >= len(l) {
				continue
			}
			if id := l[idx[i]]; best == -1 || id < bestID {
				best, bestID = i, id
			}
		}
		if best == -1 {
			return true
		}
		for i, l := range lists {
			if idx[i] < len(l) && l[idx[i]] == bestID {
				idx[i]++ // consume duplicates of this ID in every list
			}
		}
		if !fn(bestID) {
			return false
		}
	}
}

// Incident returns the incident relationships as a slice, in ascending
// ID order — the allocating convenience form of IncidentDo, for
// callers that keep the result.
func (v *View) Incident(nodeID int64, dir Direction, types ...string) []*Relationship {
	adj := v.rs.adjOf(nodeID)
	if adj == nil {
		return nil
	}
	// Presize from the cheap upper bound (self-loops under Both count
	// twice in it) rather than an exact Degree, which for Both would
	// run the full merge a second time.
	bound := len(adj.out.all) + len(adj.in.all)
	if bound == 0 {
		return nil
	}
	out := make([]*Relationship, 0, bound)
	v.IncidentDo(nodeID, dir, types, func(r *Relationship) bool {
		out = append(out, r)
		return true
	})
	if len(out) == 0 {
		return nil
	}
	return out
}

// Degree returns the number of incident relationships in the given
// direction, optionally filtered by type, resolving none of them.
func (v *View) Degree(nodeID int64, dir Direction, types ...string) int {
	adj := v.rs.adjOf(nodeID)
	if adj == nil {
		return 0
	}
	return adj.degree(dir, types)
}

// ---------------------------------------------------------------------
// Publication. Everything below runs with g.mu held exclusively.
// ---------------------------------------------------------------------

// publishLocked returns the epoch for the current version, freezing the
// open edit into it when the published one is stale. It costs
// O(dirty): untouched pages, postings and index buckets are shared with
// the previous epoch. Caller holds g.mu.
func (g *Graph) publishLocked() *readState {
	prev := g.published.Load()
	v := g.version.Load()
	if prev.version == v {
		return prev
	}
	start := time.Now()
	rs := &readState{version: v, relCount: prev.relCount, nextNode: g.nextNode, nextRel: g.nextRel, lazy: prev.lazy}

	// The epoch's entities are copies of the writer's, which it keeps
	// writing in place; a deleted entity's tombstone goes with the
	// publish that empties its slot.
	rels := prev.rels.edit(g.nextRel, prev.relAt)
	eachChanged(g.dirtyRels, prev.nextRel, g.nextRel, func(id int64) {
		var cp *Relationship
		if r := g.liveRels[id]; r != nil {
			cp = copyRel(r)
			rs.relCount++
		} else {
			delete(g.liveRels, id)
		}
		if prev.hasRel(id) {
			rs.relCount--
		}
		rels.set(id, cp)
	})
	rs.rels = rels.table

	nodes := prev.nodes.edit(g.nextNode, prev.nodeAt)
	all, byLabel := g.nodeDeltasLocked(prev, func(id int64, now *Node) {
		var cp *Node
		if now != nil {
			cp = copyNode(now)
		} else {
			delete(g.live, id)
		}
		nodes.set(id, cp)
	})
	rs.nodes = nodes.table
	rs.nodeCount = prev.nodeCount + len(all.add) - len(all.del)
	rs.allNodes = all.apply(prev.allNodes)
	rs.byLabel, rs.labels = prev.byLabel, prev.labels
	if len(byLabel) > 0 {
		rs.byLabel = maps.Clone(prev.byLabel)
		for l, d := range byLabel {
			if ids := d.apply(prev.byLabel[l]); len(ids) > 0 {
				rs.byLabel[l] = ids
			} else {
				delete(rs.byLabel, l)
			}
		}
		rs.labels = slices.Sorted(maps.Keys(rs.byLabel))
	}

	rs.adj = prev.adj
	if g.adj != nil || prev.adj.len() < g.nextNode {
		rs.adj = g.adjEditLocked().table
		g.adj, g.ownAdj = nil, make(map[int64]struct{})
	}

	rs.relTypeCount = maps.Clone(g.relTypeCount) // O(#types)
	rs.relTypes = prev.relTypes
	if g.relTypesDirty {
		rs.relTypes = relTypesLocked(g.relTypeCount)
	}

	// Index: a pair the previous epoch lacks (a new index) comes whole;
	// otherwise only its touched buckets change. The edit's buckets are
	// handed over, sorted.
	rs.propIndex = prev.propIndex
	if len(g.pendingIndex) > 0 {
		rs.propIndex = maps.Clone(prev.propIndex)
		for pair, touched := range g.pendingIndex {
			byVal, ok := prev.propIndex[pair]
			if ok {
				byVal = maps.Clone(byVal)
			} else {
				byVal = make(map[string][]int64, len(touched))
			}
			for key, ids := range touched {
				if len(ids) > 0 {
					slices.Sort(ids)
					byVal[key] = slices.Clip(ids)
				} else {
					delete(byVal, key)
				}
			}
			rs.propIndex[pair] = byVal
		}
		g.pendingIndex = make(map[indexPair]map[string][]int64)
	}

	// Fresh sets, not cleared ones: ranging over a map costs its
	// capacity, and a bulk edit's would stay.
	g.dirtyNodes, g.dirtyRels = make(map[int64]struct{}), make(map[int64]struct{})
	g.relTypesDirty = false
	g.published.Store(rs)
	g.snapshotPublishes.Add(1)
	g.publishNanos.Add(time.Since(start).Nanoseconds())
	return rs
}

// eachChanged calls fn for every ID an edit may have changed: the dirty
// ones below the published allocator, and every ID allocated since.
func eachChanged(dirty map[int64]struct{}, from, to int64, fn func(id int64)) {
	for id := range dirty {
		fn(id)
	}
	for id := from; id < to; id++ {
		fn(id)
	}
}

// nodeDeltasLocked returns how the node list and the label postings of
// the open edit differ from the published epoch prev, calling visit
// (when non-nil) with every changed ID and its node as it now stands
// (nil when absent). Caller holds g.mu.
func (g *Graph) nodeDeltasLocked(prev *readState, visit func(id int64, now *Node)) (all idDelta, byLabel map[string]*idDelta) {
	byLabel = map[string]*idDelta{}
	eachChanged(g.dirtyNodes, prev.nextNode, g.nextNode, func(id int64) {
		was, now := prev.node(id), g.live[id]
		if visit != nil {
			visit(id, now)
		}
		all.note(id, was != nil, now != nil)
		noteLabels(byLabel, id, was, now)
	})
	return all, byLabel
}

// idDelta is the change to one ascending ID list between two epochs:
// the IDs that joined it and the IDs that left.
type idDelta struct{ add, del []int64 }

// note records one node's membership before and after.
func (d *idDelta) note(id int64, was, now bool) {
	switch {
	case now && !was:
		d.add = append(d.add, id)
	case was && !now:
		d.del = append(d.del, id)
	}
}

// noteLabels records a changed node's label changes between its
// published copy and its current one (nil when absent). Labels repeated
// on one node count once.
func noteLabels(byLabel map[string]*idDelta, id int64, was, now *Node) {
	var wl, nl []string
	if was != nil {
		wl = was.Labels
	}
	if now != nil {
		nl = now.Labels
	}
	delta := func(l string) *idDelta {
		d := byLabel[l]
		if d == nil {
			d = &idDelta{}
			byLabel[l] = d
		}
		return d
	}
	for i, l := range wl {
		if !slices.Contains(wl[:i], l) && !slices.Contains(nl, l) {
			delta(l).del = append(delta(l).del, id)
		}
	}
	for i, l := range nl {
		if !slices.Contains(nl[:i], l) && !slices.Contains(wl, l) {
			delta(l).add = append(delta(l).add, id)
		}
	}
}

// apply returns the ascending list old with the delta applied. When
// only IDs past its end joined — creations, the common case — it
// appends in place: publishes form one chain under g.mu and an epoch
// has at most one successor, so the capacity past len(old) is written
// by this publish alone and read by no published epoch. (Columns
// aliased from a snapshot have cap == len, so appending to them
// copies.) Anything else merges into a fresh list in one pass.
func (d *idDelta) apply(old []int64) []int64 {
	if d == nil || len(d.add) == 0 && len(d.del) == 0 {
		return old
	}
	slices.Sort(d.add)
	slices.Sort(d.del)
	if len(d.del) == 0 && (len(old) == 0 || d.add[0] > old[len(old)-1]) {
		return append(old, d.add...)
	}
	out := make([]int64, 0, len(old)+len(d.add)-len(d.del))
	add, del := d.add, d.del
	for _, id := range old {
		for len(add) > 0 && add[0] < id {
			out = append(out, add[0])
			add = add[1:]
		}
		if len(del) > 0 && del[0] == id {
			del = del[1:]
			continue
		}
		out = append(out, id)
	}
	return append(out, add...)
}

// current is apply for a reader of the open edit: always a fresh list,
// never written into old's spare capacity.
func (d *idDelta) current(old []int64) []int64 {
	if d == nil || len(d.add) == 0 && len(d.del) == 0 {
		return slices.Clone(old)
	}
	return d.apply(slices.Clip(old))
}

// copyNode and copyRel copy an entity between the writer and an epoch:
// the writer adopts a copy of an epoch's entity before it hands one
// out or writes one, and a publish gives the epoch a copy of each dirty
// one, so the two never share a struct. They are shallow copies: the
// Labels and Props slices are shared, which is safe because every
// mutator replaces them wholesale instead of mutating them in place
// (Props is immutable; see setNodePropLocked and addNodeLabelLocked).
// Only touched entities are copied; every other slot is shared with the
// previous epoch, including the entities a cold columnar epoch
// materialized.
func copyNode(n *Node) *Node {
	cp := *n
	return &cp
}

func copyRel(r *Relationship) *Relationship {
	cp := *r
	return &cp
}
