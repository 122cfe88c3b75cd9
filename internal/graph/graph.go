package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Errors returned by store operations.
var (
	ErrNodeNotFound = errors.New("graph: node not found")
	ErrRelNotFound  = errors.New("graph: relationship not found")
	ErrHasRels      = errors.New("graph: node still has relationships")
)

// Node is a graph vertex. Labels are kept sorted; Props maps property
// names to normalized values. Nodes are owned by their Graph: mutate them
// only through the Graph API so indexes stay consistent.
type Node struct {
	ID     int64
	Labels []string
	Props  map[string]Value
}

// HasLabel reports whether the node carries the given label.
func (n *Node) HasLabel(label string) bool {
	for _, l := range n.Labels {
		if l == label {
			return true
		}
	}
	return false
}

// Prop returns the named property, or nil when absent.
func (n *Node) Prop(name string) Value { return n.Props[name] }

// String renders the node in Cypher-ish notation: (:AS {asn: 2497}).
func (n *Node) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for _, l := range n.Labels {
		b.WriteByte(':')
		b.WriteString(l)
	}
	if len(n.Props) > 0 {
		b.WriteByte(' ')
		b.WriteString(FormatValue(n.Props))
	}
	b.WriteByte(')')
	return b.String()
}

// Relationship is a directed, typed edge between two nodes.
type Relationship struct {
	ID      int64
	Type    string
	StartID int64
	EndID   int64
	Props   map[string]Value
}

// Prop returns the named property, or nil when absent.
func (r *Relationship) Prop(name string) Value { return r.Props[name] }

// String renders the relationship as [:TYPE {props}].
func (r *Relationship) String() string {
	var b strings.Builder
	b.WriteString("[:")
	b.WriteString(r.Type)
	if len(r.Props) > 0 {
		b.WriteByte(' ')
		b.WriteString(FormatValue(r.Props))
	}
	b.WriteByte(']')
	return b.String()
}

// Path is an alternating node/relationship sequence produced by
// variable-length pattern matching. len(Nodes) == len(Rels)+1.
type Path struct {
	Nodes []*Node
	Rels  []*Relationship
}

// Len returns the number of relationships in the path.
func (p Path) Len() int { return len(p.Rels) }

// String renders the path as (a)-[:T]->(b)-[:U]->(c).
func (p Path) String() string {
	var b strings.Builder
	for i, n := range p.Nodes {
		b.WriteString(n.String())
		if i < len(p.Rels) {
			b.WriteString("-")
			b.WriteString(p.Rels[i].String())
			b.WriteString("->")
		}
	}
	return b.String()
}

// Direction selects which incident relationships to traverse.
type Direction int

// Traversal directions.
const (
	Outgoing Direction = iota // follow start → end
	Incoming                  // follow end → start
	Both                      // either orientation
)

// Graph is an in-memory property graph. All exported methods are safe for
// concurrent use. The zero value is not usable; call New.
type Graph struct {
	mu    sync.RWMutex
	nodes map[int64]*Node
	rels  map[int64]*Relationship
	// out and in map node ID -> incident rel IDs, kept in ascending
	// rel-ID order: IDs are assigned monotonically and removal
	// preserves relative order. Incident/Degree and the snapshot
	// builder (view.go) rely on this invariant to merge and bucket
	// without sorting; bulk loaders that bypass CreateRelationship
	// must call normalizeAdjacencyLocked.
	out     map[int64][]int64
	in      map[int64][]int64
	byLabel map[string]map[int64]struct{}
	// propIndex maps label -> property -> valueKey -> node IDs.
	propIndex map[string]map[string]map[string][]int64
	indexed   map[string]map[string]bool // label -> property -> indexed?
	nextNode  int64
	nextRel   int64
	// version counts structural mutations (node/relationship writes,
	// label/property changes, index creation). Query planners stamp
	// their plans with it and replan when it moves. Writers bump it
	// while holding mu; it is atomic so the lock-free snapshot path
	// (View) can compare it against the published epoch without
	// blocking.
	version atomic.Uint64
	// labelScans caches the sorted id list of each label, stamped with
	// the version it was built at; label scans are the executor's
	// hottest access path and rebuilding + sorting the list per scan
	// dominates small queries. Entries are invalidated lazily by the
	// version stamp, so writes stay cache-oblivious.
	labelScans map[string]labelScanEntry

	// Lock-free read path (see view.go): the last published immutable
	// epoch, the dirty sets accumulated since it was built, and the
	// snapshot observability counters.
	published    atomic.Pointer[readState]
	dirtyNodes   map[int64]struct{} // created/deleted/relabeled/reproped nodes
	dirtyRels    map[int64]struct{} // created/deleted/reproped rels
	dirtyAdj     map[int64]struct{} // nodes whose adjacency (or incident rel copies) changed
	relTypeCount map[string]int     // live rels per type; keeps RelationshipTypes and epoch builds O(#types)
	// labelsDirty and indexDirty are deliberately coarse: one flag per
	// table, so the next publish rebuilds that whole table (O(labeled
	// nodes) / O(index size)) rather than tracking per-bucket churn.
	// See the CONCURRENCY.md cost model; batch indexed writes on huge
	// graphs.
	labelsDirty       bool
	relTypesDirty     bool
	indexDirty        bool
	viewPins          atomic.Int64
	snapshotPublishes atomic.Int64

	// obs, when set, receives every applied Mutation while g.mu is
	// still held — the write-ahead-log hook (see mutation.go).
	obs func(Mutation)

	// cold marks a graph freshly loaded from a columnar snapshot whose
	// mutable maps have not been materialized: reads run off the
	// published lazy epoch (colfile_decode.go) and the first use of the
	// locked API hydrates the maps (ensureMutable / hydrateLocked).
	cold atomic.Bool
	// hydrateNanos is how long the one hydration a cold load can have
	// took; 0 until it has happened.
	hydrateNanos atomic.Int64
}

// ensureMutable materializes the mutable maps of a cold columnar graph
// before the locked API touches them. The fast path — any graph that
// is not a cold columnar load, or one already hydrated — is a single
// atomic load. Callers must not hold g.mu.
func (g *Graph) ensureMutable() {
	if g.cold.Load() {
		g.mu.Lock()
		g.hydrateLocked()
		g.mu.Unlock()
	}
}

// HydrationStats reports how often (0 or 1) and for how long the
// mutable maps of a cold columnar load were materialized. Only
// mutators, CheckIntegrity, the JSONL export and the locked read API
// hydrate; Views, planning and CollectStats never do. A graph that was
// not loaded from a columnar snapshot reports zeros.
func (g *Graph) HydrationStats() (hydrations, nanos int64) {
	if ns := g.hydrateNanos.Load(); ns > 0 {
		return 1, ns
	}
	return 0, 0
}

type labelScanEntry struct {
	version uint64
	ids     []int64
}

// Version returns the mutation counter: it increases on every write —
// node/relationship creation and deletion, property and label changes,
// and index creation. A cached query plan stamped with an older version
// is stale and must be re-planned.
func (g *Graph) Version() uint64 {
	return g.version.Load()
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes:        make(map[int64]*Node),
		rels:         make(map[int64]*Relationship),
		out:          make(map[int64][]int64),
		in:           make(map[int64][]int64),
		byLabel:      make(map[string]map[int64]struct{}),
		propIndex:    make(map[string]map[string]map[string][]int64),
		indexed:      make(map[string]map[string]bool),
		labelScans:   make(map[string]labelScanEntry),
		relTypeCount: make(map[string]int),
		dirtyNodes:   make(map[int64]struct{}),
		dirtyRels:    make(map[int64]struct{}),
		dirtyAdj:     make(map[int64]struct{}),
		nextNode:     1,
		nextRel:      1,
	}
}

// CreateNode adds a node with the given labels and properties and returns
// it. Property values must already be normalized (see NormalizeValue) or
// of directly supported types; invalid values return an error.
func (g *Graph) CreateNode(labels []string, props map[string]any) (*Node, error) {
	norm, err := normalizeProps(props)
	if err != nil {
		return nil, err
	}
	ls := append([]string(nil), labels...)
	sort.Strings(ls)
	g.ensureMutable()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.version.Add(1)
	n := &Node{ID: g.nextNode, Labels: ls, Props: norm}
	g.nextNode++
	g.nodes[n.ID] = n
	for _, l := range ls {
		set := g.byLabel[l]
		if set == nil {
			set = make(map[int64]struct{})
			g.byLabel[l] = set
		}
		set[n.ID] = struct{}{}
	}
	g.indexNodeLocked(n)
	g.noteNodeLocked(n.ID)
	if len(ls) > 0 {
		g.labelsDirty = true
	}
	g.notifyLocked(Mutation{Kind: MutCreateNode, NodeID: n.ID, Labels: ls, Props: norm})
	return n, nil
}

// MustCreateNode is CreateNode that panics on error, for generators whose
// inputs are statically valid.
func (g *Graph) MustCreateNode(labels []string, props map[string]any) *Node {
	n, err := g.CreateNode(labels, props)
	if err != nil {
		panic(err)
	}
	return n
}

// CreateRelationship adds a directed, typed edge from start to end.
func (g *Graph) CreateRelationship(startID, endID int64, relType string, props map[string]any) (*Relationship, error) {
	norm, err := normalizeProps(props)
	if err != nil {
		return nil, err
	}
	g.ensureMutable()
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[startID]; !ok {
		return nil, fmt.Errorf("%w: start %d", ErrNodeNotFound, startID)
	}
	if _, ok := g.nodes[endID]; !ok {
		return nil, fmt.Errorf("%w: end %d", ErrNodeNotFound, endID)
	}
	g.version.Add(1)
	r := &Relationship{ID: g.nextRel, Type: relType, StartID: startID, EndID: endID, Props: norm}
	g.nextRel++
	g.rels[r.ID] = r
	g.out[startID] = append(g.out[startID], r.ID)
	g.in[endID] = append(g.in[endID], r.ID)
	g.noteRelLocked(r)
	g.addRelTypeLocked(relType)
	g.notifyLocked(Mutation{Kind: MutCreateRel, RelID: r.ID, StartID: startID, EndID: endID, RelType: relType, Props: norm})
	return r, nil
}

// MustCreateRelationship is CreateRelationship that panics on error.
func (g *Graph) MustCreateRelationship(startID, endID int64, relType string, props map[string]any) *Relationship {
	r, err := g.CreateRelationship(startID, endID, relType, props)
	if err != nil {
		panic(err)
	}
	return r
}

func normalizeProps(props map[string]any) (map[string]Value, error) {
	norm := make(map[string]Value, len(props))
	for k, v := range props {
		nv, err := NormalizeValue(v)
		if err != nil {
			return nil, fmt.Errorf("property %q: %w", k, err)
		}
		if nv != nil {
			norm[k] = nv
		}
	}
	return norm, nil
}

// Node returns the node with the given ID, or nil when absent.
func (g *Graph) Node(id int64) *Node {
	g.ensureMutable()
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nodes[id]
}

// Relationship returns the relationship with the given ID, or nil.
func (g *Graph) Relationship(id int64) *Relationship {
	g.ensureMutable()
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.rels[id]
}

// NodeCount returns the number of nodes. On a cold columnar graph the
// count comes from the published epoch (cold means no writes have
// happened, so the epoch is current) — deliberately not a hydration
// point, so startup probes stay cheap.
func (g *Graph) NodeCount() int {
	if g.cold.Load() {
		if rs := g.published.Load(); rs != nil {
			return rs.nodeCount
		}
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// RelationshipCount returns the number of relationships (epoch-served
// while cold, like NodeCount).
func (g *Graph) RelationshipCount() int {
	if g.cold.Load() {
		if rs := g.published.Load(); rs != nil {
			return rs.relCount
		}
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.rels)
}

// Labels returns all node labels present in the graph, sorted.
func (g *Graph) Labels() []string {
	g.ensureMutable()
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.byLabel))
	for l, set := range g.byLabel {
		if len(set) > 0 {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// RelationshipTypes returns all relationship types present, sorted.
func (g *Graph) RelationshipTypes() []string {
	g.ensureMutable()
	g.mu.RLock()
	defer g.mu.RUnlock()
	return relTypesLocked(g.relTypeCount)
}

// relTypesLocked renders the live per-type refcounts as a sorted type
// list. Caller holds g.mu (any mode).
func relTypesLocked(counts map[string]int) []string {
	out := make([]string, 0, len(counts))
	for t := range counts {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// addRelTypeLocked and dropRelTypeLocked maintain the per-type
// refcounts; the epoch's type list only needs rebuilding when a type
// appears or disappears, not on every relationship write. Caller
// holds g.mu.
func (g *Graph) addRelTypeLocked(typ string) {
	g.relTypeCount[typ]++
	if g.relTypeCount[typ] == 1 {
		g.relTypesDirty = true
	}
}

func (g *Graph) dropRelTypeLocked(typ string) {
	g.relTypeCount[typ]--
	if g.relTypeCount[typ] <= 0 {
		delete(g.relTypeCount, typ)
		g.relTypesDirty = true
	}
}

// NodesByLabel returns the IDs of all nodes with the given label, in
// ascending ID order (deterministic iteration matters for reproducible
// query results).
func (g *Graph) NodesByLabel(label string) []int64 {
	g.ensureMutable()
	g.mu.RLock()
	if e, ok := g.labelScans[label]; ok && e.version == g.version.Load() {
		out := append([]int64(nil), e.ids...)
		g.mu.RUnlock()
		return out
	}
	g.mu.RUnlock()
	g.mu.Lock()
	defer g.mu.Unlock()
	if e, ok := g.labelScans[label]; ok && e.version == g.version.Load() {
		return append([]int64(nil), e.ids...)
	}
	set := g.byLabel[label]
	ids := make([]int64, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sortIDs(ids)
	g.labelScans[label] = labelScanEntry{version: g.version.Load(), ids: ids}
	return append([]int64(nil), ids...)
}

// AllNodeIDs returns every node ID in ascending order.
func (g *Graph) AllNodeIDs() []int64 {
	g.ensureMutable()
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]int64, 0, len(g.nodes))
	for id := range g.nodes {
		out = append(out, id)
	}
	sortIDs(out)
	return out
}

// AllRelationshipIDs returns every relationship ID in ascending order.
func (g *Graph) AllRelationshipIDs() []int64 {
	g.ensureMutable()
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]int64, 0, len(g.rels))
	for id := range g.rels {
		out = append(out, id)
	}
	sortIDs(out)
	return out
}

func sortIDs(ids []int64) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// Incident returns the relationships incident to the node in the given
// direction, optionally filtered to a set of types (empty means all).
// Results are in ascending relationship-ID order. The adjacency lists
// are maintained in that order already, so this is a filter (single
// direction) or a two-way merge (Both, deduplicating self-loops) with
// no sorting and no scratch maps.
func (g *Graph) Incident(nodeID int64, dir Direction, types ...string) []*Relationship {
	g.ensureMutable()
	g.mu.RLock()
	defer g.mu.RUnlock()
	var outIDs, inIDs []int64
	switch dir {
	case Outgoing:
		outIDs = g.out[nodeID]
	case Incoming:
		inIDs = g.in[nodeID]
	case Both:
		outIDs, inIDs = g.out[nodeID], g.in[nodeID]
	}
	res := make([]*Relationship, 0, len(outIDs)+len(inIDs))
	i, j := 0, 0
	for i < len(outIDs) || j < len(inIDs) {
		var id int64
		switch {
		case j >= len(inIDs):
			id = outIDs[i]
			i++
		case i >= len(outIDs):
			id = inIDs[j]
			j++
		case outIDs[i] < inIDs[j]:
			id = outIDs[i]
			i++
		case inIDs[j] < outIDs[i]:
			id = inIDs[j]
			j++
		default: // self-loop: same rel in both lists, emit once
			id = outIDs[i]
			i++
			j++
		}
		r := g.rels[id]
		if r == nil {
			continue
		}
		if len(types) > 0 && !slices.Contains(types, r.Type) {
			continue
		}
		res = append(res, r)
	}
	return res
}

// IncidentDo calls fn for every incident relationship in ascending ID
// order, stopping early when fn returns false (see Reader). Unlike a
// View, the locked graph materializes the list first so fn never runs
// under the mutex — callbacks are free to read the graph again.
func (g *Graph) IncidentDo(nodeID int64, dir Direction, types []string, fn func(*Relationship) bool) bool {
	for _, r := range g.Incident(nodeID, dir, types...) {
		if !fn(r) {
			return false
		}
	}
	return true
}

// Degree returns the number of incident relationships in the given
// direction, optionally filtered by type — a direct count, with no
// slice materialization, dedup maps, or sorting.
func (g *Graph) Degree(nodeID int64, dir Direction, types ...string) int {
	g.ensureMutable()
	g.mu.RLock()
	defer g.mu.RUnlock()
	count := 0
	if dir != Incoming {
		for _, id := range g.out[nodeID] {
			r := g.rels[id]
			if r == nil || (len(types) > 0 && !slices.Contains(types, r.Type)) {
				continue
			}
			count++
		}
	}
	if dir != Outgoing {
		for _, id := range g.in[nodeID] {
			r := g.rels[id]
			if r == nil || (len(types) > 0 && !slices.Contains(types, r.Type)) {
				continue
			}
			if dir == Both && r.StartID == nodeID {
				continue // self-loop, already counted on the out side
			}
			count++
		}
	}
	return count
}

// SetNodeProp sets (or, with a nil value, removes) a node property and
// keeps any property index on it consistent.
func (g *Graph) SetNodeProp(nodeID int64, key string, value any) error {
	nv, err := NormalizeValue(value)
	if err != nil {
		return err
	}
	g.ensureMutable()
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.nodes[nodeID]
	if n == nil {
		return fmt.Errorf("%w: %d", ErrNodeNotFound, nodeID)
	}
	g.setNodePropLocked(n, key, nv)
	g.notifyLocked(Mutation{Kind: MutSetNodeProp, NodeID: nodeID, Key: key, Value: nv})
	return nil
}

// setNodePropLocked applies a normalized property write. Caller holds
// g.mu and notifies the observer itself.
func (g *Graph) setNodePropLocked(n *Node, key string, nv Value) {
	g.version.Add(1)
	g.unindexNodeLocked(n)
	if g.tracking() {
		// Copy-on-write: a published epoch may share this props map, so
		// replace it wholesale rather than mutate it under a lock-free
		// reader. Before the first snapshot, in-place is fine.
		n.Props = propsWith(n.Props, key, nv)
	} else if nv == nil {
		delete(n.Props, key)
	} else {
		n.Props[key] = nv
	}
	g.indexNodeLocked(n)
	g.noteNodeLocked(n.ID)
}

// propsWith returns a fresh map equal to props with key set to nv (or
// removed when nv is nil).
func propsWith(props map[string]Value, key string, nv Value) map[string]Value {
	out := make(map[string]Value, len(props)+1)
	for k, v := range props {
		out[k] = v
	}
	if nv == nil {
		delete(out, key)
	} else {
		out[key] = nv
	}
	return out
}

// SetRelProp sets (or removes, with nil) a relationship property.
func (g *Graph) SetRelProp(relID int64, key string, value any) error {
	nv, err := NormalizeValue(value)
	if err != nil {
		return err
	}
	g.ensureMutable()
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.rels[relID]
	if r == nil {
		return fmt.Errorf("%w: %d", ErrRelNotFound, relID)
	}
	g.setRelPropLocked(r, key, nv)
	g.notifyLocked(Mutation{Kind: MutSetRelProp, RelID: relID, Key: key, Value: nv})
	return nil
}

// setRelPropLocked applies a normalized relationship property write.
// Caller holds g.mu and notifies the observer itself.
func (g *Graph) setRelPropLocked(r *Relationship, key string, nv Value) {
	g.version.Add(1)
	if g.tracking() {
		r.Props = propsWith(r.Props, key, nv) // COW, see SetNodeProp
	} else if nv == nil {
		delete(r.Props, key)
	} else {
		r.Props[key] = nv
	}
	// Only the relationship copy is stale: adjacency buckets hold rel
	// IDs resolved through the epoch's relationship table, so a
	// prop-only change needs no adjacency rebuild on either endpoint.
	if g.tracking() {
		g.dirtyRels[r.ID] = struct{}{}
	}
}

// AddNodeLabel adds a label to a node (no-op when already present),
// keeping the label and property indexes consistent.
func (g *Graph) AddNodeLabel(nodeID int64, label string) error {
	g.ensureMutable()
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.nodes[nodeID]
	if n == nil {
		return fmt.Errorf("%w: %d", ErrNodeNotFound, nodeID)
	}
	if g.addNodeLabelLocked(n, label) {
		g.notifyLocked(Mutation{Kind: MutAddLabel, NodeID: nodeID, Label: label})
	}
	return nil
}

// addNodeLabelLocked adds a label, reporting whether anything changed.
// Caller holds g.mu and notifies the observer itself.
func (g *Graph) addNodeLabelLocked(n *Node, label string) bool {
	if n.HasLabel(label) {
		return false
	}
	g.version.Add(1)
	g.unindexNodeLocked(n)
	// Fresh slice, not append-in-place: a published epoch may share the
	// old backing array with lock-free readers.
	labels := make([]string, 0, len(n.Labels)+1)
	labels = append(labels, n.Labels...)
	labels = append(labels, label)
	sort.Strings(labels)
	n.Labels = labels
	set := g.byLabel[label]
	if set == nil {
		set = make(map[int64]struct{})
		g.byLabel[label] = set
	}
	set[n.ID] = struct{}{}
	g.indexNodeLocked(n)
	g.noteNodeLocked(n.ID)
	g.labelsDirty = true
	return true
}

// RemoveNodeLabel removes a label from a node (no-op when absent).
func (g *Graph) RemoveNodeLabel(nodeID int64, label string) error {
	g.ensureMutable()
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.nodes[nodeID]
	if n == nil {
		return fmt.Errorf("%w: %d", ErrNodeNotFound, nodeID)
	}
	if g.removeNodeLabelLocked(n, label) {
		g.notifyLocked(Mutation{Kind: MutRemoveLabel, NodeID: nodeID, Label: label})
	}
	return nil
}

// removeNodeLabelLocked removes a label, reporting whether anything
// changed. Caller holds g.mu and notifies the observer itself.
func (g *Graph) removeNodeLabelLocked(n *Node, label string) bool {
	if !n.HasLabel(label) {
		return false
	}
	g.version.Add(1)
	g.unindexNodeLocked(n)
	// Filter into a fresh slice (not n.Labels[:0]) for the same
	// epoch-sharing reason as AddNodeLabel.
	out := make([]string, 0, len(n.Labels))
	for _, l := range n.Labels {
		if l != label {
			out = append(out, l)
		}
	}
	n.Labels = out
	delete(g.byLabel[label], n.ID)
	g.indexNodeLocked(n)
	g.noteNodeLocked(n.ID)
	g.labelsDirty = true
	return true
}

// DeleteRelationship removes a relationship.
func (g *Graph) DeleteRelationship(relID int64) error {
	g.ensureMutable()
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.rels[relID]
	if r == nil {
		return fmt.Errorf("%w: %d", ErrRelNotFound, relID)
	}
	g.deleteRelLocked(r)
	g.notifyLocked(Mutation{Kind: MutDeleteRel, RelID: relID})
	return nil
}

// deleteRelLocked removes a relationship. Caller holds g.mu and
// notifies the observer itself.
func (g *Graph) deleteRelLocked(r *Relationship) {
	g.version.Add(1)
	g.out[r.StartID] = removeID(g.out[r.StartID], r.ID)
	g.in[r.EndID] = removeID(g.in[r.EndID], r.ID)
	delete(g.rels, r.ID)
	g.noteRelLocked(r)
	g.dropRelTypeLocked(r.Type)
}

// DeleteNode removes a node. It fails with ErrHasRels when relationships
// are still attached unless detach is true (DETACH DELETE semantics).
func (g *Graph) DeleteNode(nodeID int64, detach bool) error {
	g.ensureMutable()
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.nodes[nodeID]
	if n == nil {
		return fmt.Errorf("%w: %d", ErrNodeNotFound, nodeID)
	}
	if err := g.deleteNodeLocked(n, detach); err != nil {
		return err
	}
	g.notifyLocked(Mutation{Kind: MutDeleteNode, NodeID: nodeID, Detach: detach})
	return nil
}

// deleteNodeLocked removes a node (and, with detach, its incident
// relationships — the cascade is part of the same journaled mutation,
// since replaying the delete against the same state cascades
// identically). Caller holds g.mu and notifies the observer itself.
func (g *Graph) deleteNodeLocked(n *Node, detach bool) error {
	nodeID := n.ID
	if len(g.out[nodeID]) > 0 || len(g.in[nodeID]) > 0 {
		if !detach {
			return fmt.Errorf("%w: %d", ErrHasRels, nodeID)
		}
		for _, id := range append(append([]int64(nil), g.out[nodeID]...), g.in[nodeID]...) {
			if r := g.rels[id]; r != nil {
				g.out[r.StartID] = removeID(g.out[r.StartID], id)
				g.in[r.EndID] = removeID(g.in[r.EndID], id)
				delete(g.rels, id)
				g.noteRelLocked(r)
				g.dropRelTypeLocked(r.Type)
			}
		}
	}
	g.version.Add(1)
	g.unindexNodeLocked(n)
	for _, l := range n.Labels {
		delete(g.byLabel[l], nodeID)
	}
	delete(g.out, nodeID)
	delete(g.in, nodeID)
	delete(g.nodes, nodeID)
	g.noteNodeLocked(nodeID)
	if len(n.Labels) > 0 {
		g.labelsDirty = true
	}
	return nil
}

// withdrawRelLocked removes a loaded relationship's side effects —
// adjacency entries and type refcount — so a later duplicate record
// can replace it cleanly. Caller holds g.mu; bulk loaders only.
func (g *Graph) withdrawRelLocked(r *Relationship) {
	g.out[r.StartID] = removeID(g.out[r.StartID], r.ID)
	g.in[r.EndID] = removeID(g.in[r.EndID], r.ID)
	g.dropRelTypeLocked(r.Type)
}

// withdrawNodeLocked removes a loaded node's label-set and
// property-index entries so a later duplicate record can replace it
// cleanly. Caller holds g.mu; bulk loaders only.
func (g *Graph) withdrawNodeLocked(n *Node) {
	g.unindexNodeLocked(n)
	for _, l := range n.Labels {
		delete(g.byLabel[l], n.ID)
	}
}

// normalizeAdjacencyLocked restores the ascending-ID invariant on the
// adjacency lists. CreateRelationship maintains it for free (IDs are
// monotonic), but bulk loaders that insert relationships directly in
// file order must call this before the graph escapes. Caller holds
// g.mu (or exclusively owns the graph).
func (g *Graph) normalizeAdjacencyLocked() {
	for _, ids := range g.out {
		if !sortedIDs(ids) {
			sortIDs(ids)
		}
	}
	for _, ids := range g.in {
		if !sortedIDs(ids) {
			sortIDs(ids)
		}
	}
}

func sortedIDs(ids []int64) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			return false
		}
	}
	return true
}

func removeID(ids []int64, id int64) []int64 {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// ForEachNode calls fn for every node in ascending ID order. The callback
// must not mutate the graph.
func (g *Graph) ForEachNode(fn func(*Node) bool) {
	for _, id := range g.AllNodeIDs() {
		g.mu.RLock()
		n := g.nodes[id]
		g.mu.RUnlock()
		if n == nil {
			continue
		}
		if !fn(n) {
			return
		}
	}
}

// ForEachRelationship calls fn for every relationship in ascending ID
// order. The callback must not mutate the graph.
func (g *Graph) ForEachRelationship(fn func(*Relationship) bool) {
	for _, id := range g.AllRelationshipIDs() {
		g.mu.RLock()
		r := g.rels[id]
		g.mu.RUnlock()
		if r == nil {
			continue
		}
		if !fn(r) {
			return
		}
	}
}
