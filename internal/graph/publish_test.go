package graph

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// publishTestGraph builds the starting graph of the publish tests: just
// under one table page of nodes and relationships, so the writes that
// follow grow the tables across a page boundary, with an index on
// (N, k) and an unindexed property u.
func publishTestGraph(t testing.TB, rng *rand.Rand) *Graph {
	t.Helper()
	g := New()
	g.CreateIndex("N", "k")
	n := pageSize - 24
	for i := 0; i < n; i++ {
		g.MustCreateNode(randomLabels(rng), map[string]any{"k": rng.Intn(5), "u": rng.Intn(5)})
	}
	for i := 0; i < n; i++ {
		g.MustCreateRelationship(int64(1+rng.Intn(n)), int64(1+rng.Intn(n)), []string{"A", "B", "C"}[rng.Intn(3)], map[string]any{"w": rng.Intn(3)})
	}
	return g
}

func randomLabels(rng *rand.Rand) []string {
	labels := []string{"N", "M", "O"}
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		l := labels[rng.Intn(3)]
		return []string{l, l} // a repeated label counts once
	case 2:
		return []string{labels[rng.Intn(3)], labels[rng.Intn(3)]}
	}
	return []string{labels[rng.Intn(3)]}
}

// randomWrite applies one seeded mutation: creates and deletes (DETACH
// or not, self-loops included), label changes, property writes and
// removals on indexed and unindexed keys, and now and then a new index.
func randomWrite(g *Graph, rng *rand.Rand) {
	node := func() int64 {
		ids := g.AllNodeIDs()
		return ids[rng.Intn(len(ids))]
	}
	val := func() any {
		if rng.Intn(4) == 0 {
			return nil // removes the property
		}
		return rng.Intn(5)
	}
	switch r := rng.Intn(100); {
	case r < 25:
		g.MustCreateNode(randomLabels(rng), map[string]any{"k": rng.Intn(5), "u": rng.Intn(5)})
	case r < 45:
		a := node()
		b := a // self-loop
		if rng.Intn(4) > 0 {
			b = node()
		}
		g.MustCreateRelationship(a, b, []string{"A", "B", "C"}[rng.Intn(3)], nil)
	case r < 52:
		if ids := g.AllRelationshipIDs(); len(ids) > 0 {
			_ = g.DeleteRelationship(ids[rng.Intn(len(ids))])
		}
	case r < 60:
		_ = g.DeleteNode(node(), rng.Intn(2) == 0)
	case r < 68:
		_ = g.AddNodeLabel(node(), []string{"N", "M", "O"}[rng.Intn(3)])
	case r < 74:
		_ = g.RemoveNodeLabel(node(), []string{"N", "M", "O"}[rng.Intn(3)])
	case r < 86:
		_ = g.SetNodeProp(node(), []string{"k", "u"}[rng.Intn(2)], val())
	case r < 95:
		if ids := g.AllRelationshipIDs(); len(ids) > 0 {
			_ = g.SetRelProp(ids[rng.Intn(len(ids))], "w", val())
		}
	default:
		pair := [][2]string{{"M", "k"}, {"O", "u"}, {"N", "u"}, {"Q", "k"}}[rng.Intn(4)]
		g.CreateIndex(pair[0], pair[1])
	}
}

// assertReadersEqual compares two readers through every Reader method,
// over node IDs in [-1, maxNode) and relationship IDs in [-1, maxRel).
// It also checks got's index lookups against label scans, so index
// maintenance on writes is covered even where both sides read the same
// live index.
func assertReadersEqual(t *testing.T, step string, got, want Reader, maxNode, maxRel int64) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: "+format, append([]any{step}, args...)...)
	}
	if !slices.Equal(got.AllNodeIDs(), want.AllNodeIDs()) {
		fail("AllNodeIDs differ")
	}
	for _, l := range []string{"N", "M", "O", "Q", ""} {
		if !slices.Equal(got.NodesByLabel(l), want.NodesByLabel(l)) {
			fail("NodesByLabel(%q) = %v, want %v", l, got.NodesByLabel(l), want.NodesByLabel(l))
		}
		for _, p := range []string{"k", "u"} {
			if got.HasIndex(l, p) != want.HasIndex(l, p) {
				fail("HasIndex(%q, %q) differs", l, p)
			}
			for _, v := range []any{0, 1, 2, 3, 4, "x"} {
				gi, gu := got.NodesByLabelProp(l, p, v)
				wi, wu := want.NodesByLabelProp(l, p, v)
				if gu != wu || !slices.Equal(gi, wi) {
					fail("NodesByLabelProp(%q, %q, %v) = %v/%v, want %v/%v", l, p, v, gi, gu, wi, wu)
				}
				var scan []int64
				nv, _ := NormalizeValue(v)
				for _, id := range got.NodesByLabel(l) {
					if pv, ok := got.Node(id).Props.Get(p); ok && ValuesEqual(pv, nv) {
						scan = append(scan, id)
					}
				}
				if !slices.Equal(gi, scan) {
					fail("NodesByLabelProp(%q, %q, %v) = %v, a label scan finds %v", l, p, v, gi, scan)
				}
			}
		}
	}
	for id := int64(-1); id < maxNode; id++ {
		gn, wn := got.Node(id), want.Node(id)
		if (gn == nil) != (wn == nil) || gn != nil && (gn.ID != wn.ID || !slices.Equal(gn.Labels, wn.Labels) || !reflect.DeepEqual(gn.Props, wn.Props)) {
			fail("Node(%d) = %v, want %v", id, gn, wn)
		}
		for _, dir := range []Direction{Outgoing, Incoming, Both} {
			for _, types := range [][]string{nil, {"B", "A"}} {
				var gr, wr []int64
				got.IncidentDo(id, dir, types, func(r *Relationship) bool { gr = append(gr, r.ID); return true })
				want.IncidentDo(id, dir, types, func(r *Relationship) bool { wr = append(wr, r.ID); return true })
				if !slices.Equal(gr, wr) || got.Degree(id, dir, types...) != want.Degree(id, dir, types...) {
					fail("node %d dir %d types %v: incident %v, want %v", id, dir, types, gr, wr)
				}
			}
		}
	}
	for id := int64(-1); id < maxRel; id++ {
		gr, wr := got.Relationship(id), want.Relationship(id)
		if (gr == nil) != (wr == nil) || gr != nil && (gr.ID != wr.ID || gr.Type != wr.Type ||
			gr.StartID != wr.StartID || gr.EndID != wr.EndID || !reflect.DeepEqual(gr.Props, wr.Props)) {
			fail("Relationship(%d) = %v, want %v", id, gr, wr)
		}
	}
}

// assertViewsEqual compares two epochs through every Reader method plus
// their counts, Labels, RelationshipTypes and CollectStats, and requires
// their columnar encodings to be byte-identical.
func assertViewsEqual(t *testing.T, step string, got, want *View) {
	t.Helper()
	if got.Version() != want.Version() || got.NodeCount() != want.NodeCount() || got.RelationshipCount() != want.RelationshipCount() {
		t.Fatalf("%s: version/counts %d/%d/%d, want %d/%d/%d", step, got.Version(), got.NodeCount(), got.RelationshipCount(),
			want.Version(), want.NodeCount(), want.RelationshipCount())
	}
	if !slices.Equal(got.Labels(), want.Labels()) || !slices.Equal(got.RelationshipTypes(), want.RelationshipTypes()) {
		t.Fatalf("%s: labels %v / types %v, want %v / %v", step, got.Labels(), got.RelationshipTypes(), want.Labels(), want.RelationshipTypes())
	}
	if gs, ws := got.CollectStats(), want.CollectStats(); !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: CollectStats %+v, want %+v", step, gs, ws)
	}
	assertReadersEqual(t, step, got, want, want.rs.nextNode+1, want.rs.nextRel+1)
	gb, err := got.MarshalColumnar(ColMeta{})
	if err != nil {
		t.Fatal(err)
	}
	wb, err := want.MarshalColumnar(ColMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: MarshalColumnar differs (%d vs %d bytes)", step, len(gb), len(wb))
	}
}

// TestSnapshotPublishMatchesFullBuild drives seeded random write
// bursts and checks after each that the incrementally published epoch
// equals one built from scratch out of the same live state, and reads
// like the live graph itself — once from a graph built through the
// API, once from a cold columnar load of it, whose first publish
// shares the loaded epoch.
func TestSnapshotPublishMatchesFullBuild(t *testing.T) {
	for _, cold := range []bool{false, true} {
		t.Run(fmt.Sprintf("cold=%v", cold), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			g := publishTestGraph(t, rng)
			if cold {
				data, err := g.View().MarshalColumnar(ColMeta{})
				if err != nil {
					t.Fatal(err)
				}
				if g, _, err = LoadColumnarBytes(data, ColLoadOptions{VerifyChecksums: true}); err != nil {
					t.Fatal(err)
				}
			}
			check := func(step string) {
				t.Helper()
				v := g.View()
				assertViewsEqual(t, step, v, rebuiltView(g))
				assertReadersEqual(t, step+" (live graph)", v, g, v.rs.nextNode+1, v.rs.nextRel+1)
			}
			check("start")
			steps := 120
			if testing.Short() {
				steps = 30
			}
			for step := 0; step < steps; step++ {
				for n := 1 + rng.Intn(4); n > 0; n-- {
					randomWrite(g, rng)
				}
				check(fmt.Sprintf("step %d", step))
			}
			if g.View().rs.nextNode <= pageSize {
				t.Fatalf("the writes never crossed a page boundary (nextNode %d)", g.View().rs.nextNode)
			}
		})
	}
}

// viewState is what a pinned View exposes, copied out so a later
// comparison sees any change to the epoch's memory.
type viewState struct {
	all     []int64
	byLabel map[string][]int64
	bucket  []int64
	nodes   map[int64]*Node
	rels    map[int64]*Relationship
	content map[int64]string // node ID -> String(); relationship -ID -> String()
}

func captureView(v *View) viewState {
	s := viewState{
		all:     slices.Clone(v.AllNodeIDs()),
		byLabel: map[string][]int64{},
		nodes:   map[int64]*Node{},
		rels:    map[int64]*Relationship{},
		content: map[int64]string{},
	}
	for _, l := range v.Labels() {
		s.byLabel[l] = slices.Clone(v.NodesByLabel(l))
	}
	ids, _ := v.NodesByLabelProp("N", "k", 1)
	s.bucket = slices.Clone(ids)
	for _, id := range v.AllNodeIDs() {
		n := v.Node(id)
		s.nodes[id] = n
		s.content[id] = n.String()
		v.IncidentDo(id, Outgoing, nil, func(r *Relationship) bool {
			s.rels[r.ID] = r
			s.content[-r.ID] = r.String()
			return true
		})
	}
	return s
}

func assertViewUnchanged(t *testing.T, what string, v *View, want viewState) {
	t.Helper()
	got := captureView(v)
	if !reflect.DeepEqual(got.all, want.all) || !reflect.DeepEqual(got.byLabel, want.byLabel) ||
		!reflect.DeepEqual(got.bucket, want.bucket) || !reflect.DeepEqual(got.content, want.content) {
		t.Fatalf("%s changed a pinned epoch's node list, postings, index bucket or entities", what)
	}
	for id, n := range want.nodes {
		if got.nodes[id] != n {
			t.Fatalf("%s swapped pinned node %d", what, id)
		}
	}
	for id, r := range want.rels {
		if got.rels[id] != r {
			t.Fatalf("%s swapped pinned relationship %d", what, id)
		}
	}
}

// TestSnapshotPublishKeepsOldEpochs checks that a publish never writes
// memory an older epoch or a loaded snapshot reads: a pinned View sees
// the same node list, label postings, index buckets, entities and
// entity pointers after appends to a label, a deletion (the merge
// path), index writes, and relationship and label writes; the
// snapshot buffer of a cold load keeps its CRC through writes and
// publishes; and the first publish after a cold load keeps every
// untouched entity's pointer.
func TestSnapshotPublishKeepsOldEpochs(t *testing.T) {
	for _, cold := range []bool{false, true} {
		t.Run(fmt.Sprintf("cold=%v", cold), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			g := publishTestGraph(t, rng)
			var data []byte
			var crc uint32
			if cold {
				var err error
				if data, err = g.View().MarshalColumnar(ColMeta{}); err != nil {
					t.Fatal(err)
				}
				crc = crc32.ChecksumIEEE(data)
				if g, _, err = LoadColumnarBytes(data, ColLoadOptions{VerifyChecksums: true}); err != nil {
					t.Fatal(err)
				}
			}
			pinned := g.View()
			before := captureView(pinned)

			// The first write's publish must share every untouched
			// entity with the loaded epoch.
			touched := pinned.NodesByLabel("N")[3]
			if err := g.SetNodeProp(touched, "u", "x"); err != nil {
				t.Fatal(err)
			}
			next := g.View()
			for id, n := range before.nodes {
				if id != touched && next.Node(id) != n {
					t.Fatalf("first publish replaced untouched node %d", id)
				}
			}
			for id, r := range before.rels {
				if next.Relationship(id) != r {
					t.Fatalf("first publish replaced untouched relationship %d", id)
				}
			}
			assertViewUnchanged(t, "a property write", pinned, before)

			// Appends to an existing label, published one by one so later
			// publishes append into spare capacity.
			for i := 0; i < 40; i++ {
				g.MustCreateNode([]string{"N"}, map[string]any{"k": 1})
				g.View()
			}
			assertViewUnchanged(t, "label appends", pinned, before)
			mid := g.View()
			midState := captureView(mid)

			if err := g.DeleteNode(pinned.NodesByLabel("N")[0], true); err != nil {
				t.Fatal(err)
			}
			g.View()
			if err := g.SetNodeProp(pinned.NodesByLabel("N")[1], "k", 1); err != nil {
				t.Fatal(err)
			}
			g.MustCreateNode([]string{"N"}, map[string]any{"k": 1})
			g.View()
			assertViewUnchanged(t, "a deletion and index writes", pinned, before)
			assertViewUnchanged(t, "a deletion and index writes", mid, midState)

			// Delete from the middle of a loaded node's adjacency list,
			// and write to one of its relationships and to its labels.
			hub := int64(-1)
			for _, id := range g.View().AllNodeIDs() {
				if id < pinned.rs.nextNode && g.View().Degree(id, Outgoing) >= 3 {
					hub = id
					break
				}
			}
			if hub < 0 {
				t.Fatal("no loaded node has three outgoing relationships")
			}
			out := g.View().Incident(hub, Outgoing)
			if err := g.DeleteRelationship(out[0].ID); err != nil {
				t.Fatal(err)
			}
			if err := g.SetRelProp(out[1].ID, "w", 99); err != nil {
				t.Fatal(err)
			}
			if err := g.AddNodeLabel(hub, "Q"); err != nil {
				t.Fatal(err)
			}
			g.View()
			assertViewUnchanged(t, "relationship and label writes", pinned, before)
			assertViewUnchanged(t, "relationship and label writes", mid, midState)
			if cold && crc32.ChecksumIEEE(data) != crc {
				t.Fatal("writes and publishes modified the loaded snapshot buffer")
			}
		})
	}
}

// buildPublishWorld builds n indexed AS nodes with two PEERS_WITH
// relationships each: the graph the publish-cost guard and benchmark
// write into.
func buildPublishWorld(n int) *Graph {
	rng := rand.New(rand.NewSource(1))
	g := New()
	g.CreateIndex("AS", "asn")
	for i := 0; i < n; i++ {
		g.MustCreateNode([]string{"AS"}, map[string]any{"asn": i})
	}
	for i := 0; i < 2*n; i++ {
		g.MustCreateRelationship(int64(1+i%n), int64(1+rng.Intn(n)), "PEERS_WITH", nil)
	}
	return g
}

// TestSnapshotPublishAllocsAfterWrite is the regression guard for the
// O(dirty) publish: after one property write on a 100k-node graph the
// next publish must allocate far less than any whole table (flat
// copies of this graph's node, relationship and adjacency tables come
// to over 11 MB).
func TestSnapshotPublishAllocsAfterWrite(t *testing.T) {
	g := buildPublishWorld(100_000)
	g.View()
	if err := g.SetNodeProp(50_000, "name", "x"); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g.View()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 512<<10 {
		t.Fatalf("publish after one SetNodeProp allocated %d KiB, want < 512 KiB", got>>10)
	}
}
