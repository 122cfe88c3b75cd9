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
// pinned after a write builds the next epoch under the mutex, sharing
// every untouched node, relationship, and adjacency bucket with the
// previous epoch, and publishes it atomically. Readers holding older
// epochs are unaffected: epoch entities are copies, never aliased with
// the mutable state. Consecutive writes with no interleaved read cost
// nothing beyond dirty bookkeeping — publication is lazy and
// amortizes over write bursts.

import (
	"maps"
	"slices"
	"sort"
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
// epoch; nothing is ever mutated after publication. Node and
// relationship tables are ID-indexed slices (IDs are dense,
// monotonically assigned), so lookups are bounds-checked array reads.
type readState struct {
	version   uint64
	nodes     []*Node         // index = node ID; nil = absent
	rels      []*Relationship // index = rel ID; nil = absent
	adj       []nodeAdj       // index = node ID
	allNodes  []int64         // ascending
	byLabel   map[string][]int64
	labels    []string // sorted, non-empty labels only
	relTypes  []string // sorted
	propIndex map[string]map[string]map[string][]int64
	indexed   map[string]map[string]bool
	nodeCount int
	relCount  int
	// relTypeCount is the live relationship count per type, so stats
	// never walk the relationship table. Never nil.
	relTypeCount map[string]int
	// nextNode and nextRel freeze the ID allocators at publication so a
	// snapshot serialized from a pinned View (snapshot.go, colfile.go)
	// restores allocator state without touching the live graph.
	nextNode int64
	nextRel  int64
	// lazy, when non-nil, marks a cold columnar epoch: entity slots in
	// nodes and rels start nil and materialize on first access (see
	// colfile_decode.go). All slot accesses on such an epoch must go
	// through nodeAt/relAt — they are atomic, because concurrent
	// readers CAS-install materialized entities.
	lazy *colLazy
}

// nodeAt resolves the node-table slot at a valid index (caller bounds-
// checks), materializing it on demand for cold columnar epochs.
func (rs *readState) nodeAt(id int64) *Node {
	if rs.lazy != nil {
		return rs.lazy.node(rs, id)
	}
	return rs.nodes[id]
}

// relAt is the relationship counterpart of nodeAt.
func (rs *readState) relAt(id int64) *Relationship {
	if rs.lazy != nil {
		return rs.lazy.rel(rs, id)
	}
	return rs.rels[id]
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
// graph: how many Views were pinned and how many epochs were actually
// built and published. A high pin/publish ratio means the read path is
// running lock-free; publishes track write churn as observed by
// readers.
func (g *Graph) SnapshotStats() (viewPins, snapshotPublishes int64) {
	return g.viewPins.Load(), g.snapshotPublishes.Load()
}

// Version returns the version of the graph this view was pinned at.
func (v *View) Version() uint64 { return v.rs.version }

// Node returns the node with the given ID, or nil when absent.
func (v *View) Node(id int64) *Node {
	if id < 0 || id >= int64(len(v.rs.nodes)) {
		return nil
	}
	return v.rs.nodeAt(id)
}

// Relationship returns the relationship with the given ID, or nil.
func (v *View) Relationship(id int64) *Relationship {
	if id < 0 || id >= int64(len(v.rs.rels)) {
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

// AllNodeIDs returns every node ID in ascending order. Read-only.
func (v *View) AllNodeIDs() []int64 { return v.rs.allNodes }

// NodesByLabel returns the IDs of nodes with the label, ascending.
// Read-only.
func (v *View) NodesByLabel(label string) []int64 { return v.rs.byLabel[label] }

// HasIndex reports whether a property index exists on (label,
// property).
func (v *View) HasIndex(label, property string) bool {
	return v.rs.indexed[label][property]
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
	if rs.indexed[label][property] {
		return rs.propIndex[label][property][ValueKey(nv)], true
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
	if nodeID < 0 || nodeID >= int64(len(v.rs.adj)) {
		return nil
	}
	return &v.rs.adj[nodeID]
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
// and publishing it when the published one is stale. Incremental
// builds copy only dirty entities and adjacency; everything else is
// shared with the previous epoch. Caller holds g.mu.
func (g *Graph) publishLocked() *readState {
	prev := g.published.Load()
	v := g.version.Load()
	if prev != nil && prev.version == v {
		return prev
	}
	if prev != nil && prev.lazy != nil {
		// A cold columnar epoch has lazily materialized entity slots
		// that concurrent readers may still be CAS-filling; sharing its
		// tables would race and could propagate unmaterialized nils.
		// Mutators hydrate the maps before bumping the version, so a
		// full rebuild from them is always possible here.
		prev = nil
	}
	rs := &readState{
		version:   v,
		nodeCount: len(g.nodes),
		relCount:  len(g.rels),
		nextNode:  g.nextNode,
		nextRel:   g.nextRel,
	}

	// Relationship table first: adjacency buckets point into it.
	rs.rels = make([]*Relationship, g.nextRel)
	if prev == nil {
		for id, r := range g.rels {
			rs.rels[id] = copyRel(r)
		}
	} else {
		copy(rs.rels, prev.rels)
		for id := range g.dirtyRels {
			if r := g.rels[id]; r != nil {
				rs.rels[id] = copyRel(r)
			} else if id < int64(len(rs.rels)) {
				rs.rels[id] = nil
			}
		}
	}

	rs.nodes = make([]*Node, g.nextNode)
	if prev == nil {
		for id, n := range g.nodes {
			rs.nodes[id] = copyNode(n)
		}
	} else {
		copy(rs.nodes, prev.nodes)
		for id := range g.dirtyNodes {
			if n := g.nodes[id]; n != nil {
				rs.nodes[id] = copyNode(n)
			} else if id < int64(len(rs.nodes)) {
				rs.nodes[id] = nil
			}
		}
	}

	rs.adj = make([]nodeAdj, g.nextNode)
	if prev == nil {
		for id := range g.nodes {
			rs.adj[id] = g.buildAdjLocked(rs, id)
		}
	} else {
		copy(rs.adj, prev.adj)
		for id := range g.dirtyAdj {
			if id >= int64(len(rs.adj)) {
				continue
			}
			if _, ok := g.nodes[id]; ok {
				rs.adj[id] = g.buildAdjLocked(rs, id)
			} else {
				rs.adj[id] = nodeAdj{}
			}
		}
		for id := range g.dirtyNodes {
			if _, ok := g.nodes[id]; !ok && id < int64(len(rs.adj)) {
				rs.adj[id] = nodeAdj{}
			}
		}
	}

	rs.allNodes = make([]int64, 0, len(g.nodes))
	for id := int64(0); id < int64(len(rs.nodes)); id++ {
		if rs.nodes[id] != nil {
			rs.allNodes = append(rs.allNodes, id)
		}
	}

	if prev == nil || g.labelsDirty {
		rs.byLabel = make(map[string][]int64, len(g.byLabel))
		for l, set := range g.byLabel {
			if len(set) == 0 {
				continue
			}
			ids := make([]int64, 0, len(set))
			for id := range set {
				ids = append(ids, id)
			}
			sortIDs(ids)
			rs.byLabel[l] = ids
			rs.labels = append(rs.labels, l)
		}
		sort.Strings(rs.labels)
	} else {
		rs.byLabel, rs.labels = prev.byLabel, prev.labels
	}

	rs.relTypeCount = maps.Clone(g.relTypeCount) // O(#types)
	if prev == nil || g.relTypesDirty {
		rs.relTypes = relTypesLocked(g.relTypeCount)
	} else {
		rs.relTypes = prev.relTypes
	}

	if prev == nil || g.indexDirty {
		rs.indexed = make(map[string]map[string]bool, len(g.indexed))
		for l, props := range g.indexed {
			cp := make(map[string]bool, len(props))
			for p, on := range props {
				cp[p] = on
			}
			rs.indexed[l] = cp
		}
		rs.propIndex = make(map[string]map[string]map[string][]int64, len(g.propIndex))
		for l, byProp := range g.propIndex {
			cpProp := make(map[string]map[string][]int64, len(byProp))
			for p, byVal := range byProp {
				cpVal := make(map[string][]int64, len(byVal))
				for key, ids := range byVal {
					if len(ids) == 0 {
						continue
					}
					sorted := append([]int64(nil), ids...)
					sortIDs(sorted)
					cpVal[key] = sorted
				}
				cpProp[p] = cpVal
			}
			rs.propIndex[l] = cpProp
		}
	} else {
		rs.indexed, rs.propIndex = prev.indexed, prev.propIndex
	}

	g.dirtyNodes = make(map[int64]struct{})
	g.dirtyRels = make(map[int64]struct{})
	g.dirtyAdj = make(map[int64]struct{})
	g.labelsDirty, g.relTypesDirty, g.indexDirty = false, false, false
	g.published.Store(rs)
	g.snapshotPublishes.Add(1)
	return rs
}

// buildAdjLocked builds one node's type-bucketed adjacency against the
// epoch's relationship table. The mutable adjacency lists are kept in
// ascending rel-ID order (IDs are assigned monotonically and removal
// preserves order), so each bucket comes out sorted with no sort pass.
// Caller holds g.mu.
func (g *Graph) buildAdjLocked(rs *readState, nodeID int64) nodeAdj {
	return nodeAdj{
		out: buildDirAdj(rs, g.out[nodeID]),
		in:  buildDirAdj(rs, g.in[nodeID]),
	}
}

func buildDirAdj(rs *readState, ids []int64) dirAdj {
	if len(ids) == 0 {
		return dirAdj{}
	}
	d := dirAdj{all: make([]int64, 0, len(ids))}
	for _, id := range ids {
		r := rs.rels[id]
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

// copyNode and copyRel make the epoch's decoupled entity copies.
// They are shallow struct copies: the Labels and Props slices are
// shared with the live entity, which is safe because every mutator
// replaces them wholesale instead of mutating them in place (Props is
// immutable; see setNodePropLocked and addNodeLabelLocked). Sharing
// keeps the epoch's GC footprint to a few words per entity — deep-
// copying every property set would double the live heap and tax every
// GC cycle of an otherwise read-only process.
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
