package graph

import (
	"errors"
	"fmt"
	"maps"
	"slices"
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

// Node is a graph vertex. Labels are kept sorted; Props holds the
// normalized property values in key order. Nodes are owned by their
// Graph: mutate them only through the Graph API so indexes stay
// consistent.
type Node struct {
	ID     int64
	Labels []string
	Props  Props
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
func (n *Node) Prop(name string) Value {
	v, _ := n.Props.Get(name)
	return v
}

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
		b.WriteString(FormatValue(n.Props.Map()))
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
	Props   Props
}

// Prop returns the named property, or nil when absent.
func (r *Relationship) Prop(name string) Value {
	v, _ := r.Props.Get(name)
	return v
}

// String renders the relationship as [:TYPE {props}].
func (r *Relationship) String() string {
	var b strings.Builder
	b.WriteString("[:")
	b.WriteString(r.Type)
	if len(r.Props) > 0 {
		b.WriteByte(' ')
		b.WriteString(FormatValue(r.Props.Map()))
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
//
// A graph is a chain of immutable epochs (view.go) plus the writer's
// open edit of the next one, all under mu: the entities the writer owns,
// the IDs it dirtied, the adjacency table being derived (cloned page by
// page and entry by entry as writes touch them) and the touched index
// buckets. The locked API reads the published epoch through that edit;
// a View freezes the edit into the next epoch (publishLocked). Nothing
// else holds the world: a cold columnar load stays its mapped epoch
// until writes touch it, one page at a time.
type Graph struct {
	mu sync.RWMutex
	// version counts structural mutations (node/relationship writes,
	// label/property changes, index creation). Query planners stamp
	// their plans with it and replan when it moves. Writers bump it
	// while holding mu; it is atomic so the lock-free snapshot path
	// (View) can compare it against the published epoch without
	// blocking.
	version atomic.Uint64
	// published is the last published epoch; never nil.
	published atomic.Pointer[readState]

	// live holds the writer's own copy of every node the locked API has
	// handed out or written, and nil for one deleted since the last
	// publish; liveRels does the same for relationships. A copy is
	// adopted on first touch and written in place from then on, so a
	// write query's bound entities see its later writes however many
	// epochs are published meanwhile. Any other node is as the
	// published epoch has it.
	live     map[int64]*Node
	liveRels map[int64]*Relationship
	// dirtyNodes and dirtyRels hold the IDs below the published epoch's
	// allocators that changed since it; every ID allocated since is
	// dirty too.
	dirtyNodes map[int64]struct{}
	dirtyRels  map[int64]struct{}
	// adj is the next epoch's adjacency table, open from the first
	// adjacency change after a publish until the next; ownAdj holds the
	// entries below the published table's length that it has copied,
	// the only ones it may write.
	adj    *tableEdit[nodeAdj]
	ownAdj map[int64]struct{}
	// pendingIndex holds the touched buckets of each index with their
	// current IDs, unsorted; a pair the published epoch lacks is a new
	// index, held whole.
	pendingIndex  map[indexPair]map[string][]int64
	nextNode      int64
	nextRel       int64
	relTypeCount  map[string]int // live rels per type; keeps publishes O(#types)
	relTypesDirty bool

	// obs, when set, receives every applied Mutation while g.mu is
	// still held — the write-ahead-log hook (see mutation.go).
	obs func(Mutation)

	viewPins          atomic.Int64
	snapshotPublishes atomic.Int64
	publishNanos      atomic.Int64
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
	g := &Graph{
		live:         make(map[int64]*Node),
		liveRels:     make(map[int64]*Relationship),
		dirtyNodes:   make(map[int64]struct{}),
		dirtyRels:    make(map[int64]struct{}),
		ownAdj:       make(map[int64]struct{}),
		pendingIndex: make(map[indexPair]map[string][]int64),
		relTypeCount: make(map[string]int),
		nextNode:     1,
		nextRel:      1,
	}
	g.published.Store(emptyEpoch())
	return g
}

// CreateNode adds a node with the given labels and properties and returns
// it. Property values must already be normalized (see NormalizeValue) or
// of directly supported types; invalid values return an error.
func (g *Graph) CreateNode(labels []string, props map[string]any) (*Node, error) {
	norm, err := normalizeProps(props)
	if err != nil {
		return nil, err
	}
	ls := sortedLabels(labels)
	g.mu.Lock()
	defer g.mu.Unlock()
	n := &Node{ID: g.nextNode, Labels: ls, Props: norm}
	g.putNodeLocked(n)
	g.notifyLocked(Mutation{Kind: MutCreateNode, NodeID: n.ID, Labels: ls, Props: norm})
	return n, nil
}

// putNodeLocked installs n under its ID, replacing (and unindexing) a
// node that holds it. Caller holds g.mu and notifies the observer.
func (g *Graph) putNodeLocked(n *Node) {
	g.version.Add(1)
	if old := g.nodeLocked(n.ID); old != nil {
		g.unindexNodeLocked(old)
	}
	g.live[n.ID] = n
	g.nextNode = max(g.nextNode, n.ID+1)
	g.indexNodeLocked(n)
	g.noteNodeLocked(n.ID)
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
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.hasNodeLocked(startID) {
		return nil, fmt.Errorf("%w: start %d", ErrNodeNotFound, startID)
	}
	if !g.hasNodeLocked(endID) {
		return nil, fmt.Errorf("%w: end %d", ErrNodeNotFound, endID)
	}
	r := &Relationship{ID: g.nextRel, Type: relType, StartID: startID, EndID: endID, Props: norm}
	g.putRelLocked(r)
	g.notifyLocked(Mutation{Kind: MutCreateRel, RelID: r.ID, StartID: startID, EndID: endID, RelType: relType, Props: norm})
	return r, nil
}

// putRelLocked installs r under its ID, replacing a relationship that
// holds it. Caller holds g.mu, has checked both endpoints and notifies
// the observer.
func (g *Graph) putRelLocked(r *Relationship) {
	g.version.Add(1)
	if old := g.relLocked(r.ID); old != nil {
		g.removeRelLocked(old)
	}
	g.liveRels[r.ID] = r
	g.nextRel = max(g.nextRel, r.ID+1)
	g.adjForWriteLocked(r.StartID).out.add(r.ID, r.Type)
	g.adjForWriteLocked(r.EndID).in.add(r.ID, r.Type)
	g.noteRelLocked(r.ID)
	g.addRelTypeLocked(r.Type)
}

// MustCreateRelationship is CreateRelationship that panics on error.
func (g *Graph) MustCreateRelationship(startID, endID int64, relType string, props map[string]any) *Relationship {
	r, err := g.CreateRelationship(startID, endID, relType, props)
	if err != nil {
		panic(err)
	}
	return r
}

// sortedLabels returns a node's label set: sorted, each label once (a
// label repeated in CREATE (n:A:A) would otherwise enter its index
// buckets twice).
func sortedLabels(labels []string) []string {
	ls := slices.Clone(labels)
	slices.Sort(ls)
	return slices.Compact(ls)
}

func normalizeProps(props map[string]any) (Props, error) {
	norm := make(map[string]Value, len(props))
	for k, v := range props {
		nv, err := NormalizeValue(v)
		if err != nil {
			return nil, fmt.Errorf("property %q: %w", k, err)
		}
		norm[k] = nv
	}
	return PropsOf(norm), nil
}

// ---------------------------------------------------------------------
// The open edit's entities and adjacency. Callers hold g.mu; the ones
// that adopt or write hold it exclusively.
// ---------------------------------------------------------------------

// nodeLocked returns node id as it stands, or nil: the writer's copy
// when it has one, else the published epoch's (materialized on touch
// when cold). Read-only.
func (g *Graph) nodeLocked(id int64) *Node {
	if n, ok := g.live[id]; ok {
		return n
	}
	return g.published.Load().node(id)
}

// relLocked is the relationship counterpart of nodeLocked.
func (g *Graph) relLocked(id int64) *Relationship {
	if r, ok := g.liveRels[id]; ok {
		return r
	}
	return g.published.Load().rel(id)
}

// hasNodeLocked reports whether node id exists, materializing nothing.
func (g *Graph) hasNodeLocked(id int64) bool {
	if n, ok := g.live[id]; ok {
		return n != nil
	}
	return g.published.Load().hasNode(id)
}

// hasRelLocked is the relationship counterpart of hasNodeLocked.
func (g *Graph) hasRelLocked(id int64) bool {
	if r, ok := g.liveRels[id]; ok {
		return r != nil
	}
	return g.published.Load().hasRel(id)
}

// adoptNodeLocked returns the writer's own copy of node id, or nil: the
// pointer the locked API hands out and the mutators write in place.
func (g *Graph) adoptNodeLocked(id int64) *Node {
	n, ok := g.live[id]
	if !ok {
		if n = g.published.Load().node(id); n != nil {
			n = copyNode(n)
			g.live[id] = n
		}
	}
	return n
}

// adoptRelLocked is the relationship counterpart of adoptNodeLocked.
func (g *Graph) adoptRelLocked(id int64) *Relationship {
	r, ok := g.liveRels[id]
	if !ok {
		if r = g.published.Load().rel(id); r != nil {
			r = copyRel(r)
			g.liveRels[id] = r
		}
	}
	return r
}

// adjLocked returns node id's adjacency as it stands — the open edit's
// entry, else the published one — or nil when out of range. Read-only.
func (g *Graph) adjLocked(id int64) *nodeAdj {
	if g.adj != nil {
		if id < 0 || id >= g.adj.len() {
			return nil
		}
		return g.adj.at(id)
	}
	return g.published.Load().adjOf(id)
}

// adjEditLocked returns the open adjacency edit, sized to nextNode,
// opening it from the published table first if need be.
func (g *Graph) adjEditLocked() *tableEdit[nodeAdj] {
	if g.adj == nil {
		g.adj = g.published.Load().adj.edit(g.nextNode, nil)
	} else {
		g.adj.resize(g.nextNode)
	}
	return g.adj
}

// adjForWriteLocked returns node id's entry in the open adjacency edit,
// writable: its page is cloned, and the entry itself copied deep, the
// first time this edit touches them. The pointer is good until the next
// call (a resize may move the page).
func (g *Graph) adjForWriteLocked(id int64) *nodeAdj {
	e := g.adj
	if e == nil || id >= e.len() {
		e = g.adjEditLocked()
	}
	a := e.mut(id)
	if id < g.published.Load().adj.len() {
		if _, ok := g.ownAdj[id]; !ok {
			*a = nodeAdj{out: a.out.clone(), in: a.in.clone()}
			g.ownAdj[id] = struct{}{}
		}
	}
	return a
}

// noteNodeLocked and noteRelLocked mark an ID dirty. IDs allocated
// since the last publish are dirty anyway, so a bulk load pays no
// bookkeeping.
func (g *Graph) noteNodeLocked(id int64) {
	if id < g.published.Load().nextNode {
		g.dirtyNodes[id] = struct{}{}
	}
}

func (g *Graph) noteRelLocked(id int64) {
	if id < g.published.Load().nextRel {
		g.dirtyRels[id] = struct{}{}
	}
}

// ---------------------------------------------------------------------
// Locked reads: always current, so write queries see their own writes.
// ---------------------------------------------------------------------

// Node returns the node with the given ID, or nil when absent.
func (g *Graph) Node(id int64) *Node {
	g.mu.RLock()
	n, ok := g.live[id]
	g.mu.RUnlock()
	if ok {
		return n
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.adoptNodeLocked(id)
}

// Relationship returns the relationship with the given ID, or nil.
func (g *Graph) Relationship(id int64) *Relationship {
	g.mu.RLock()
	r, ok := g.liveRels[id]
	g.mu.RUnlock()
	if ok {
		return r
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.adoptRelLocked(id)
}

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int { return g.View().NodeCount() }

// RelationshipCount returns the number of relationships.
func (g *Graph) RelationshipCount() int { return g.View().RelationshipCount() }

// Labels returns all node labels present in the graph, sorted.
func (g *Graph) Labels() []string { return slices.Clone(g.View().Labels()) }

// RelationshipTypes returns all relationship types present, sorted.
func (g *Graph) RelationshipTypes() []string { return slices.Clone(g.View().RelationshipTypes()) }

// relTypesLocked renders per-type refcounts as a sorted type list.
func relTypesLocked(counts map[string]int) []string {
	return slices.Sorted(maps.Keys(counts))
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
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nodesByLabelLocked(label)
}

func (g *Graph) nodesByLabelLocked(label string) []int64 {
	prev := g.published.Load()
	_, byLabel := g.nodeDeltasLocked(prev, nil)
	return byLabel[label].current(prev.byLabel[label])
}

// AllNodeIDs returns every node ID in ascending order.
func (g *Graph) AllNodeIDs() []int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	prev := g.published.Load()
	all, _ := g.nodeDeltasLocked(prev, nil)
	return all.current(prev.allNodes)
}

// AllRelationshipIDs returns every relationship ID in ascending order.
func (g *Graph) AllRelationshipIDs() []int64 {
	var out []int64
	g.ForEachRelationship(func(r *Relationship) bool { out = append(out, r.ID); return true })
	return out
}

// Incident returns the relationships incident to the node in the given
// direction, optionally filtered to a set of types (empty means all),
// in ascending relationship-ID order.
func (g *Graph) Incident(nodeID int64, dir Direction, types ...string) []*Relationship {
	g.mu.Lock()
	defer g.mu.Unlock()
	a := g.adjLocked(nodeID)
	if a == nil {
		return nil
	}
	var listsArr [8][]int64
	var res []*Relationship
	mergeIDs(a.lists(listsArr[:0], dir, types), func(id int64) bool {
		res = append(res, g.adoptRelLocked(id))
		return true
	})
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
// relationship resolved.
func (g *Graph) Degree(nodeID int64, dir Direction, types ...string) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if a := g.adjLocked(nodeID); a != nil {
		return a.degree(dir, types)
	}
	return 0
}

// ForEachNode calls fn for every node of the current epoch in ascending
// ID order. The callback must not mutate the graph.
func (g *Graph) ForEachNode(fn func(*Node) bool) { g.View().ForEachNode(fn) }

// ForEachRelationship calls fn for every relationship of the current
// epoch in ascending ID order. The callback must not mutate the graph.
func (g *Graph) ForEachRelationship(fn func(*Relationship) bool) { g.View().ForEachRelationship(fn) }

// ---------------------------------------------------------------------
// Mutators. Each bumps the version once and journals one Mutation.
// ---------------------------------------------------------------------

// SetNodeProp sets (or, with a nil value, removes) a node property and
// keeps any property index on it consistent.
func (g *Graph) SetNodeProp(nodeID int64, key string, value any) error {
	nv, err := NormalizeValue(value)
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.adoptNodeLocked(nodeID)
	if n == nil {
		return fmt.Errorf("%w: %d", ErrNodeNotFound, nodeID)
	}
	g.setNodePropLocked(n, key, nv)
	g.notifyLocked(Mutation{Kind: MutSetNodeProp, NodeID: nodeID, Key: key, Value: nv})
	return nil
}

// setNodePropLocked applies a normalized property write to the
// writer's node. Caller holds g.mu and notifies the observer itself.
func (g *Graph) setNodePropLocked(n *Node, key string, nv Value) {
	g.version.Add(1)
	old, had := n.Props.Get(key)
	// Props are immutable (a published epoch may share them), so every
	// write installs a new set.
	n.Props = n.Props.With(key, nv)
	// Only indexes on this key can move: other buckets stay untouched,
	// so the next publish sorts nothing else.
	for _, label := range n.Labels {
		pair := indexPair{label, key}
		if !g.indexedLocked(pair) {
			continue
		}
		if had {
			g.indexRemoveLocked(pair, old, n.ID)
		}
		if nv != nil {
			g.indexAddLocked(pair, nv, n.ID)
		}
	}
	g.noteNodeLocked(n.ID)
}

// SetRelProp sets (or removes, with nil) a relationship property.
func (g *Graph) SetRelProp(relID int64, key string, value any) error {
	nv, err := NormalizeValue(value)
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.adoptRelLocked(relID)
	if r == nil {
		return fmt.Errorf("%w: %d", ErrRelNotFound, relID)
	}
	g.setRelPropLocked(r, key, nv)
	g.notifyLocked(Mutation{Kind: MutSetRelProp, RelID: relID, Key: key, Value: nv})
	return nil
}

// setRelPropLocked applies a normalized property write to the writer's
// relationship. Adjacency holds IDs, so neither endpoint's entry
// changes. Caller holds g.mu and notifies the observer itself.
func (g *Graph) setRelPropLocked(r *Relationship, key string, nv Value) {
	g.version.Add(1)
	r.Props = r.Props.With(key, nv) // immutable, see setNodePropLocked
	g.noteRelLocked(r.ID)
}

// AddNodeLabel adds a label to a node (no-op when already present),
// keeping the label and property indexes consistent.
func (g *Graph) AddNodeLabel(nodeID int64, label string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.adoptNodeLocked(nodeID)
	if n == nil {
		return fmt.Errorf("%w: %d", ErrNodeNotFound, nodeID)
	}
	if g.addNodeLabelLocked(n, label) {
		g.notifyLocked(Mutation{Kind: MutAddLabel, NodeID: nodeID, Label: label})
	}
	return nil
}

// addNodeLabelLocked adds a label to the writer's node, reporting
// whether anything changed. Caller holds g.mu and notifies the
// observer itself.
func (g *Graph) addNodeLabelLocked(n *Node, label string) bool {
	if n.HasLabel(label) {
		return false
	}
	g.version.Add(1)
	// A fresh slice, not an append in place: a published epoch may
	// share the old backing array with lock-free readers.
	labels := make([]string, 0, len(n.Labels)+1)
	labels = append(labels, n.Labels...)
	labels = append(labels, label)
	slices.Sort(labels)
	n.Labels = labels
	g.indexLabelLocked(n, label)
	g.noteNodeLocked(n.ID)
	return true
}

// RemoveNodeLabel removes a label from a node (no-op when absent).
func (g *Graph) RemoveNodeLabel(nodeID int64, label string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.adoptNodeLocked(nodeID)
	if n == nil {
		return fmt.Errorf("%w: %d", ErrNodeNotFound, nodeID)
	}
	if g.removeNodeLabelLocked(n, label) {
		g.notifyLocked(Mutation{Kind: MutRemoveLabel, NodeID: nodeID, Label: label})
	}
	return nil
}

// removeNodeLabelLocked removes a label from the writer's node,
// reporting whether anything changed. Caller holds g.mu and notifies
// the observer itself.
func (g *Graph) removeNodeLabelLocked(n *Node, label string) bool {
	if !n.HasLabel(label) {
		return false
	}
	g.version.Add(1)
	g.unindexLabelLocked(n, label)
	// A fresh slice (not n.Labels[:0]) for the same epoch-sharing reason
	// as addNodeLabelLocked.
	n.Labels = slices.DeleteFunc(slices.Clone(n.Labels), func(l string) bool { return l == label })
	g.noteNodeLocked(n.ID)
	return true
}

// DeleteRelationship removes a relationship.
func (g *Graph) DeleteRelationship(relID int64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.relLocked(relID)
	if r == nil {
		return fmt.Errorf("%w: %d", ErrRelNotFound, relID)
	}
	g.version.Add(1)
	g.removeRelLocked(r)
	g.notifyLocked(Mutation{Kind: MutDeleteRel, RelID: relID})
	return nil
}

// removeRelLocked withdraws a relationship from both endpoints'
// adjacency and leaves its tombstone. It does not bump the version:
// its callers are one journaled mutation each. Caller holds g.mu.
func (g *Graph) removeRelLocked(r *Relationship) {
	g.adjForWriteLocked(r.StartID).out.remove(r.ID, r.Type)
	g.adjForWriteLocked(r.EndID).in.remove(r.ID, r.Type)
	g.liveRels[r.ID] = nil
	g.noteRelLocked(r.ID)
	g.dropRelTypeLocked(r.Type)
}

// DeleteNode removes a node. It fails with ErrHasRels when relationships
// are still attached unless detach is true (DETACH DELETE semantics).
func (g *Graph) DeleteNode(nodeID int64, detach bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.nodeLocked(nodeID)
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
	if a := g.adjLocked(n.ID); a != nil && len(a.out.all)+len(a.in.all) > 0 {
		if !detach {
			return fmt.Errorf("%w: %d", ErrHasRels, n.ID)
		}
		for _, id := range slices.Concat(a.out.all, a.in.all) { // a copy: the removals edit the lists
			if r := g.relLocked(id); r != nil {
				g.removeRelLocked(r)
			}
		}
	}
	g.version.Add(1)
	g.unindexNodeLocked(n)
	g.live[n.ID] = nil
	g.noteNodeLocked(n.ID)
	return nil
}

func removeID(ids []int64, id int64) []int64 {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}
