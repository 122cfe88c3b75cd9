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
// Epochs are copy-on-write. Writers keep mutating the authoritative
// locked maps (so write-query semantics — reads seeing the query's own
// writes — are untouched) and record what they dirtied; the first View
// pinned after a write builds the next epoch under the mutex and
// publishes it atomically. The build costs O(dirty), not O(graph): the
// paged entity and adjacency tables (table.go) share every page no
// dirty ID falls in, label postings and the node list change by merging
// the dirty nodes' membership changes, and only touched index buckets
// are re-sorted. There is one build path for every predecessor: the
// first publish of a fresh graph builds against an empty epoch with
// everything dirty, and the first publish after a cold columnar load
// shares the loaded epoch, which hydration republishes fully
// materialized (see hydrateLocked). Readers
// holding older epochs are unaffected: epoch entities are copies, never
// aliased with the mutable state. Consecutive writes with no
// interleaved read cost nothing beyond dirty bookkeeping — publication
// is lazy and amortizes over write bursts.

import (
	"maps"
	"slices"
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

// nodeAdj is the per-node adjacency of one epoch.
type nodeAdj struct {
	out dirAdj
	in  dirAdj
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
	// snapshot serialized from a pinned View (snapshot.go, colfile.go)
	// restores allocator state without touching the live graph. They
	// are also the lengths of the node and relationship tables.
	nextNode int64
	nextRel  int64
	// lazy, when non-nil, marks a cold columnar epoch: entity slots in
	// nodes and rels start nil and materialize on first access (see
	// colfile_decode.go). All slot accesses on such an epoch must go
	// through nodeAt/relAt — they are atomic, because concurrent
	// readers CAS-install materialized entities.
	lazy *colLazy
}

// indexPair names one property index.
type indexPair struct{ label, prop string }

// nodeAt resolves the node-table slot at a valid index (caller bounds-
// checks), materializing it on demand for cold columnar epochs.
func (rs *readState) nodeAt(id int64) *Node {
	if rs.lazy != nil {
		return rs.lazy.node(rs, id)
	}
	return *rs.nodes.at(id)
}

// relAt is the relationship counterpart of nodeAt.
func (rs *readState) relAt(id int64) *Relationship {
	if rs.lazy != nil {
		return rs.lazy.rel(rs, id)
	}
	return *rs.rels.at(id)
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
// View call builds and publishes the next epoch under the graph mutex
// (see the package comment for the cost model); subsequent calls are
// lock-free again until the next write.
func (g *Graph) View() *View {
	g.viewPins.Add(1)
	if rs := g.published.Load(); rs != nil && rs.version == g.version.Load() {
		return &View{rs: rs}
	}
	g.mu.Lock()
	rs := g.publishLocked()
	g.mu.Unlock()
	return &View{rs: rs}
}

// SnapshotStats reports the cumulative snapshot counters of this
// graph: how many Views were pinned, how many epochs were actually
// built and published, and the wall time those builds took. A high pin/publish ratio means the read path is
// running lock-free; publishes track write churn as observed by
// readers.
func (g *Graph) SnapshotStats() (viewPins, snapshotPublishes, publishNanos int64) {
	return g.viewPins.Load(), g.snapshotPublishes.Load(), g.publishNanos.Load()
}

// Version returns the version of the graph this view was pinned at.
func (v *View) Version() uint64 { return v.rs.version }

// Node returns the node with the given ID, or nil when absent.
func (v *View) Node(id int64) *Node {
	if id < 0 || id >= v.rs.nodes.len() {
		return nil
	}
	return v.rs.nodeAt(id)
}

// Relationship returns the relationship with the given ID, or nil.
func (v *View) Relationship(id int64) *Relationship {
	if id < 0 || id >= v.rs.rels.len() {
		return nil
	}
	return v.rs.relAt(id)
}

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
	var out []int64
	for _, id := range rs.byLabel[label] {
		n := rs.nodeAt(id)
		if n == nil {
			continue
		}
		if pv, ok := n.Props.Get(property); ok && ValuesEqual(pv, nv) {
			out = append(out, id)
		}
	}
	return out, false
}

// adjOf returns the node's adjacency, or nil when out of range.
func (v *View) adjOf(nodeID int64) *nodeAdj {
	if nodeID < 0 || nodeID >= v.rs.adj.len() {
		return nil
	}
	return v.rs.adj.at(nodeID)
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
	adj := v.adjOf(nodeID)
	if adj == nil {
		return true
	}
	var listsArr [8][]int64
	lists := listsArr[:0]
	if dir == Outgoing || dir == Both {
		lists = gatherLists(lists, &adj.out, types)
	}
	if dir == Incoming || dir == Both {
		lists = gatherLists(lists, &adj.in, types)
	}
	return mergeRelDo(v.rs, lists, fn)
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

// mergeRelDo iterates the union of sorted rel-ID lists in ascending
// order, resolving each distinct ID through the epoch's relationship
// table and visiting it once (a self-loop appears in both the out and
// in lists; equal heads are consumed together). The single-list case —
// any single-direction expansion — is a plain walk with no merge
// state.
func mergeRelDo(rs *readState, lists [][]int64, fn func(*Relationship) bool) bool {
	switch len(lists) {
	case 0:
		return true
	case 1:
		for _, id := range lists[0] {
			if !fn(rs.relAt(id)) {
				return false
			}
		}
		return true
	}
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
		if !fn(rs.relAt(bestID)) {
			return false
		}
	}
}

// Incident returns the incident relationships as a slice, in ascending
// ID order — the allocating convenience form of IncidentDo, for
// callers that keep the result.
func (v *View) Incident(nodeID int64, dir Direction, types ...string) []*Relationship {
	adj := v.adjOf(nodeID)
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
// direction, optionally filtered by type. Single-direction degrees are
// O(#types) bucket-length sums; Both walks the merge to count
// self-loops once.
func (v *View) Degree(nodeID int64, dir Direction, types ...string) int {
	adj := v.adjOf(nodeID)
	if adj == nil {
		return 0
	}
	if dir == Both {
		n := 0
		v.IncidentDo(nodeID, Both, types, func(*Relationship) bool { n++; return true })
		return n
	}
	d := &adj.out
	if dir == Incoming {
		d = &adj.in
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

// ---------------------------------------------------------------------
// Epoch construction (write side). Everything below runs with g.mu
// held exclusively.
// ---------------------------------------------------------------------

// publishLocked returns the epoch for the current version, building
// and publishing it when the published one is stale. The build is
// O(dirty): untouched pages, postings and index buckets are shared
// with the previous epoch. Caller holds g.mu.
//
// The predecessor is never a lazy epoch: every write first hydrates a
// cold columnar graph, and hydration publishes the loaded epoch fully
// materialized (hydrateLocked), so the first publish after a cold load
// shares it like any other.
func (g *Graph) publishLocked() *readState {
	prev := g.published.Load()
	v := g.version.Load()
	if prev != nil && prev.version == v {
		return prev
	}
	start := time.Now()
	nodeIDs, relIDs, adjIDs := maps.Keys(g.dirtyNodes), maps.Keys(g.dirtyRels), maps.Keys(g.dirtyAdj)
	if prev == nil {
		// The first publish builds against an empty epoch with every
		// entity dirty; tracking starts after it, so bulk loads pay no
		// bookkeeping.
		prev = &readState{byLabel: map[string][]int64{}, propIndex: map[indexPair]map[string][]int64{}}
		nodeIDs, relIDs, adjIDs = maps.Keys(g.nodes), maps.Keys(g.rels), maps.Keys(g.nodes)
		g.relTypesDirty = true
	}
	rs := &readState{
		version:   v,
		nodeCount: len(g.nodes),
		relCount:  len(g.rels),
		nextNode:  g.nextNode,
		nextRel:   g.nextRel,
	}

	// Relationship table first: adjacency buckets resolve types
	// through it.
	rels := prev.rels.edit(g.nextRel)
	for id := range relIDs {
		var cp *Relationship
		if r := g.rels[id]; r != nil {
			cp = copyRel(r)
		}
		rels.set(id, cp)
	}
	rs.rels = rels.table

	// Node table, and the membership changes it implies: a node's
	// presence and labels can differ from the previous epoch's only if
	// the node is dirty.
	nodes := prev.nodes.edit(g.nextNode)
	var all idDelta
	byLabel := map[string]*idDelta{}
	for id := range nodeIDs {
		var was, now *Node
		if id < prev.nextNode {
			was = prev.nodeAt(id)
		}
		if n := g.nodes[id]; n != nil {
			now = copyNode(n)
		}
		nodes.set(id, now)
		all.note(id, was != nil, now != nil)
		noteLabels(byLabel, id, was, now)
	}
	rs.nodes = nodes.table
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

	adj := prev.adj.edit(g.nextNode)
	for id := range adjIDs {
		adj.set(id, g.buildAdjLocked(&rs.rels, id))
	}
	rs.adj = adj.table

	rs.relTypeCount = maps.Clone(g.relTypeCount) // O(#types)
	rs.relTypes = prev.relTypes
	if g.relTypesDirty {
		rs.relTypes = relTypesLocked(g.relTypeCount)
	}

	// Index: a pair the previous epoch lacks (a new index) is built
	// whole; otherwise only its touched buckets are re-sorted.
	rs.propIndex = prev.propIndex
	if len(g.dirtyIndex) > 0 {
		rs.propIndex = maps.Clone(prev.propIndex)
	}
	for pair, keys := range g.dirtyIndex {
		live := g.propIndex[pair.label][pair.prop]
		byVal, ok := prev.propIndex[pair]
		touched := maps.Keys(keys)
		if ok {
			byVal = maps.Clone(byVal)
		} else {
			byVal, touched = make(map[string][]int64, len(live)), maps.Keys(live)
		}
		for key := range touched {
			if ids := live[key]; len(ids) > 0 {
				sorted := slices.Clone(ids)
				slices.Sort(sorted)
				byVal[key] = sorted
			} else {
				delete(byVal, key)
			}
		}
		rs.propIndex[pair] = byVal
	}

	g.dirtyNodes = make(map[int64]struct{})
	g.dirtyRels = make(map[int64]struct{})
	g.dirtyAdj = make(map[int64]struct{})
	g.dirtyIndex = make(map[indexPair]map[string]struct{})
	g.relTypesDirty = false
	g.published.Store(rs)
	g.snapshotPublishes.Add(1)
	g.publishNanos.Add(time.Since(start).Nanoseconds())
	return rs
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

// noteLabels records a dirty node's label changes between its previous
// epoch copy and its new one (nil when absent). Labels repeated on one
// node count once.
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
	if len(d.add) == 0 && len(d.del) == 0 {
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

// buildAdjLocked builds one node's type-bucketed adjacency against the
// epoch's relationship table (empty for a deleted node). The mutable
// adjacency lists are kept in ascending rel-ID order (IDs are assigned
// monotonically and removal preserves order), so each bucket comes out
// sorted with no sort pass. Caller holds g.mu.
func (g *Graph) buildAdjLocked(rels *table[*Relationship], nodeID int64) nodeAdj {
	return nodeAdj{
		out: buildDirAdj(rels, g.out[nodeID]),
		in:  buildDirAdj(rels, g.in[nodeID]),
	}
}

func buildDirAdj(rels *table[*Relationship], ids []int64) dirAdj {
	if len(ids) == 0 {
		return dirAdj{}
	}
	d := dirAdj{all: make([]int64, 0, len(ids))}
	for _, id := range ids {
		r := *rels.at(id)
		if r == nil {
			continue
		}
		d.all = append(d.all, id)
		placed := false
		for i := range d.byType {
			if d.byType[i].typ == r.Type {
				d.byType[i].ids = append(d.byType[i].ids, id)
				placed = true
				break
			}
		}
		if !placed {
			d.byType = append(d.byType, typeBucket{typ: r.Type, ids: []int64{id}})
		}
	}
	return d
}

// copyNode and copyRel make the epoch's decoupled entity copies: live
// entities stay mutable, and an epoch never aliases one. They are
// shallow struct copies: the Labels and Props slices are shared with
// the live entity, which is safe because every mutator replaces them
// wholesale instead of mutating them in place (Props is immutable; see
// setNodePropLocked and addNodeLabelLocked). Sharing keeps the epoch's
// GC footprint to a few words per entity — deep-copying every property
// set would double the live heap and tax every GC cycle of an
// otherwise read-only process. Only dirty entities are copied; every
// other epoch slot is shared with the previous epoch, including the
// entities a cold columnar epoch materialized.
func copyNode(n *Node) *Node {
	cp := *n
	return &cp
}

func copyRel(r *Relationship) *Relationship {
	cp := *r
	return &cp
}

// ---------------------------------------------------------------------
// Dirty tracking. Mutators call these with g.mu held; before the
// first publication nothing is tracked (the first epoch is always a
// full build), so bulk loads pay no bookkeeping.
// ---------------------------------------------------------------------

func (g *Graph) tracking() bool { return g.published.Load() != nil }

func (g *Graph) noteNodeLocked(id int64) {
	if g.tracking() {
		g.dirtyNodes[id] = struct{}{}
	}
}

func (g *Graph) noteRelLocked(r *Relationship) {
	if g.tracking() {
		g.dirtyRels[r.ID] = struct{}{}
		g.dirtyAdj[r.StartID] = struct{}{}
		g.dirtyAdj[r.EndID] = struct{}{}
	}
}

// noteIndexLocked records one touched index bucket.
func (g *Graph) noteIndexLocked(pair indexPair, key string) {
	if !g.tracking() {
		return
	}
	keys := g.dirtyIndex[pair]
	if keys == nil {
		keys = make(map[string]struct{})
		g.dirtyIndex[pair] = keys
	}
	keys[key] = struct{}{}
}
