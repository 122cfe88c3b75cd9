package graph

// This file is the write-journal surface of the graph: every mutator
// describes the change it applied as a Mutation and hands it to the
// registered write observer while still holding the graph mutex, so an
// observer (the persist.Store's write-ahead log) sees mutations in
// exactly the order they took effect. ApplyMutation is the inverse —
// it applies a previously journaled Mutation with its original IDs,
// which is how WAL replay reconstructs the tail of writes a base
// snapshot has not absorbed yet.

import (
	"fmt"
	"slices"
)

// MutKind enumerates the write operations a Graph can journal.
type MutKind uint8

// Journaled write operations.
const (
	MutCreateNode MutKind = iota + 1
	MutCreateRel
	MutSetNodeProp
	MutSetRelProp
	MutAddLabel
	MutRemoveLabel
	MutDeleteNode
	MutDeleteRel
	MutCreateIndex
)

// String names the mutation kind for diagnostics.
func (k MutKind) String() string {
	switch k {
	case MutCreateNode:
		return "create_node"
	case MutCreateRel:
		return "create_rel"
	case MutSetNodeProp:
		return "set_node_prop"
	case MutSetRelProp:
		return "set_rel_prop"
	case MutAddLabel:
		return "add_label"
	case MutRemoveLabel:
		return "remove_label"
	case MutDeleteNode:
		return "delete_node"
	case MutDeleteRel:
		return "delete_rel"
	case MutCreateIndex:
		return "create_index"
	default:
		return fmt.Sprintf("mutation(%d)", uint8(k))
	}
}

// Mutation is one applied write, carrying enough to re-apply it on a
// graph in the same pre-mutation state. Only the fields relevant to
// Kind are set. Values are normalized (see NormalizeValue).
//
// A DeleteNode with Detach covers its cascaded relationship deletions:
// replaying it against the same state removes the same relationships,
// so the journal carries one record per Graph.Version() increment.
type Mutation struct {
	Kind    MutKind
	NodeID  int64    // node operations
	RelID   int64    // relationship operations
	StartID int64    // MutCreateRel
	EndID   int64    // MutCreateRel
	RelType string   // MutCreateRel
	Labels  []string // MutCreateNode
	Label   string   // MutAddLabel, MutRemoveLabel, MutCreateIndex
	Prop    string   // MutCreateIndex
	Key     string   // MutSetNodeProp, MutSetRelProp
	Value   Value    // MutSetNodeProp, MutSetRelProp (nil removes)
	Props   Props    // MutCreateNode, MutCreateRel
	Detach  bool     // MutDeleteNode
}

// SetWriteObserver registers fn to be called for every applied
// mutation, or removes the observer when fn is nil. The observer runs
// while the graph mutex is held — mutations arrive in apply order and
// the observed entity containers are stable for the duration of the
// call — so it must be fast and must never call back into the graph.
// Slices inside the Mutation are shared with live graph state:
// observers must treat them as read-only and not retain them past the
// call (encode, then return).
func (g *Graph) SetWriteObserver(fn func(Mutation)) {
	g.mu.Lock()
	g.obs = fn
	g.mu.Unlock()
}

// notifyLocked hands a mutation to the observer. Caller holds g.mu and
// has already applied the change.
func (g *Graph) notifyLocked(m Mutation) {
	if g.obs != nil {
		g.obs(m)
	}
}

// ApplyMutation re-applies a journaled mutation, preserving the
// original entity IDs — the WAL replay path, through the same open edit
// as every other write. The mutation's values
// must already be normalized (decoded journal records are). The
// mutation is journaled to the write observer like any other write, so
// applying one on a live store re-journals it; replay attaches the
// observer only after the log has been consumed.
func (g *Graph) ApplyMutation(m Mutation) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch m.Kind {
	case MutCreateNode:
		if m.NodeID < 1 {
			return fmt.Errorf("graph: apply %s: invalid node id %d", m.Kind, m.NodeID)
		}
		if g.hasNodeLocked(m.NodeID) {
			return fmt.Errorf("graph: apply %s: node %d already exists", m.Kind, m.NodeID)
		}
		g.putNodeLocked(&Node{ID: m.NodeID, Labels: sortedLabels(m.Labels), Props: m.Props})
	case MutCreateRel:
		if m.RelID < 1 {
			return fmt.Errorf("graph: apply %s: invalid relationship id %d", m.Kind, m.RelID)
		}
		if g.hasRelLocked(m.RelID) {
			return fmt.Errorf("graph: apply %s: relationship %d already exists", m.Kind, m.RelID)
		}
		if !g.hasNodeLocked(m.StartID) {
			return fmt.Errorf("graph: apply %s: %w: start %d", m.Kind, ErrNodeNotFound, m.StartID)
		}
		if !g.hasNodeLocked(m.EndID) {
			return fmt.Errorf("graph: apply %s: %w: end %d", m.Kind, ErrNodeNotFound, m.EndID)
		}
		g.putRelLocked(&Relationship{ID: m.RelID, Type: m.RelType, StartID: m.StartID, EndID: m.EndID, Props: m.Props})
	case MutSetNodeProp:
		n := g.adoptNodeLocked(m.NodeID)
		if n == nil {
			return fmt.Errorf("graph: apply %s: %w: %d", m.Kind, ErrNodeNotFound, m.NodeID)
		}
		g.setNodePropLocked(n, m.Key, m.Value)
	case MutSetRelProp:
		r := g.adoptRelLocked(m.RelID)
		if r == nil {
			return fmt.Errorf("graph: apply %s: %w: %d", m.Kind, ErrRelNotFound, m.RelID)
		}
		g.setRelPropLocked(r, m.Key, m.Value)
	case MutAddLabel:
		n := g.adoptNodeLocked(m.NodeID)
		if n == nil {
			return fmt.Errorf("graph: apply %s: %w: %d", m.Kind, ErrNodeNotFound, m.NodeID)
		}
		if !g.addNodeLabelLocked(n, m.Label) {
			return nil // no-op: no version bump, so nothing to journal
		}
	case MutRemoveLabel:
		n := g.adoptNodeLocked(m.NodeID)
		if n == nil {
			return fmt.Errorf("graph: apply %s: %w: %d", m.Kind, ErrNodeNotFound, m.NodeID)
		}
		if !g.removeNodeLabelLocked(n, m.Label) {
			return nil
		}
	case MutDeleteNode:
		n := g.nodeLocked(m.NodeID)
		if n == nil {
			return fmt.Errorf("graph: apply %s: %w: %d", m.Kind, ErrNodeNotFound, m.NodeID)
		}
		if err := g.deleteNodeLocked(n, m.Detach); err != nil {
			return fmt.Errorf("graph: apply %s: %w", m.Kind, err)
		}
	case MutDeleteRel:
		r := g.relLocked(m.RelID)
		if r == nil {
			return fmt.Errorf("graph: apply %s: %w: %d", m.Kind, ErrRelNotFound, m.RelID)
		}
		g.version.Add(1)
		g.removeRelLocked(r)
	case MutCreateIndex:
		if !g.createIndexLocked(m.Label, m.Prop) {
			return nil
		}
	default:
		return fmt.Errorf("graph: apply: unknown mutation kind %d", uint8(m.Kind))
	}
	g.notifyLocked(m)
	return nil
}

// insertAscending inserts id into an ascending-ordered adjacency list.
// IDs are assigned monotonically, so the common case appends; replay of
// a hand-reordered journal still lands sorted.
func insertAscending(ids []int64, id int64) []int64 {
	if n := len(ids); n == 0 || ids[n-1] < id {
		return append(ids, id)
	}
	at, _ := slices.BinarySearch(ids, id)
	return slices.Insert(ids, at, id)
}
