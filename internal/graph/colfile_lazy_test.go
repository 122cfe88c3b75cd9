package graph

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// lazyTestGraph builds a small world, round-trips it through the
// columnar format, and returns the cold-loaded copy plus the original.
func lazyTestGraph(t *testing.T) (cold, orig *Graph) {
	t.Helper()
	orig = New()
	var prev *Node
	for i := 0; i < 50; i++ {
		n := orig.MustCreateNode([]string{"AS"}, map[string]any{
			"asn":  int64(1000 + i),
			"name": fmt.Sprintf("AS %d", i),
		})
		if prev != nil {
			orig.MustCreateRelationship(prev.ID, n.ID, "PEERS_WITH", map[string]any{"weight": int64(i)})
		}
		prev = n
	}
	orig.CreateIndex("AS", "asn")
	data, err := orig.View().MarshalColumnar(ColMeta{})
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err = LoadColumnarBytes(data, ColLoadOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	return cold, orig
}

// TestColumnarLazyViewReadsStayCold drives the whole View read surface
// against a cold columnar load and asserts it stayed the loaded epoch:
// no page was cloned and the writer adopted no entity.
func TestColumnarLazyViewReadsStayCold(t *testing.T) {
	g, _ := lazyTestGraph(t)
	pages := coldPages(g)
	if pages == 0 || liveCount(g) != 0 {
		t.Fatalf("columnar load came up with %d cold pages and %d adopted entities", pages, liveCount(g))
	}
	v := g.View()
	if got := v.NodeCount(); got != 50 {
		t.Fatalf("NodeCount = %d, want 50", got)
	}
	ids, indexed := v.NodesByLabelProp("AS", "asn", int64(1007))
	if !indexed || len(ids) != 1 {
		t.Fatalf("indexed lookup = %v (indexed=%v), want one hit", ids, indexed)
	}
	n := v.Node(ids[0])
	if n == nil || n.Prop("name") != "AS 7" {
		t.Fatalf("lazy node = %v, want AS 7", n)
	}
	if n2 := v.Node(ids[0]); n2 != n {
		t.Fatal("repeated lazy reads must return the same canonical pointer")
	}
	hops := 0
	v.IncidentDo(n.ID, Both, nil, func(r *Relationship) bool {
		if r.Type != "PEERS_WITH" {
			t.Fatalf("lazy rel type = %q", r.Type)
		}
		hops++
		return true
	})
	if hops != 2 {
		t.Fatalf("mid-chain node has %d incident rels, want 2", hops)
	}
	if got := g.NodeCount(); got != 50 {
		t.Fatalf("locked NodeCount = %d, want 50", got)
	}
	if coldPages(g) != pages || liveCount(g) != 0 || g.published.Load().lazy == nil {
		t.Fatal("View reads or count probes cloned a page or adopted an entity; they must not")
	}
}

// TestColumnarLazyFirstWrite checks that the first write on a cold load
// adopts only the entity it writes and that its publish clones only the
// page it fell in, that the write lands correctly, and that the next
// epoch shows it while the lazy one it shares pages with does not.
func TestColumnarLazyFirstWrite(t *testing.T) {
	g, _ := lazyTestGraph(t)
	before := g.View()
	pages := coldPages(g)
	n, err := g.CreateNode([]string{"AS"}, map[string]any{"asn": int64(9999)})
	if err != nil {
		t.Fatal(err)
	}
	if got := liveCount(g); got != 1 {
		t.Fatalf("the first write left the writer holding %d entities, want the one it created", got)
	}
	if problems := g.CheckIntegrity(); len(problems) > 0 {
		t.Fatalf("integrity after the first write: %v", problems)
	}
	if got := coldPages(g); got != pages-1 {
		t.Fatalf("the first publish left %d of %d cold pages, want all but the node page it wrote", got, pages)
	}
	after := g.View()
	if ids, _ := after.NodesByLabelProp("AS", "asn", int64(9999)); len(ids) != 1 || ids[0] != n.ID {
		t.Fatalf("post-write epoch lookup = %v, want [%d]", ids, n.ID)
	}
	if ids, _ := before.NodesByLabelProp("AS", "asn", int64(9999)); len(ids) != 0 {
		t.Fatalf("pre-write epoch sees the new node: %v", ids)
	}
	if before.Node(n.ID) != nil {
		t.Fatal("pre-write epoch resolves the new node ID")
	}
}

// TestColumnarLazyEquivalence compares every entity of the cold load,
// resolved lazily through a View, against the original graph.
func TestColumnarLazyEquivalence(t *testing.T) {
	g, orig := lazyTestGraph(t)
	v := g.View()
	orig.ForEachNode(func(want *Node) bool {
		got := v.Node(want.ID)
		if got == nil {
			t.Fatalf("node %d missing from lazy epoch", want.ID)
		}
		if fmt.Sprint(got.Labels) != fmt.Sprint(want.Labels) || fmt.Sprint(got.Props) != fmt.Sprint(want.Props) {
			t.Fatalf("node %d mismatch: got %v, want %v", want.ID, got, want)
		}
		return true
	})
	orig.ForEachRelationship(func(want *Relationship) bool {
		got := v.Relationship(want.ID)
		if got == nil {
			t.Fatalf("rel %d missing from lazy epoch", want.ID)
		}
		if got.Type != want.Type || got.StartID != want.StartID || got.EndID != want.EndID ||
			fmt.Sprint(got.Props) != fmt.Sprint(want.Props) {
			t.Fatalf("rel %d mismatch: got %v, want %v", want.ID, got, want)
		}
		return true
	})
}

// TestColumnarLazyConcurrentReadersAndWriter races many lazy View
// readers against a writer whose publishes share the cold epoch's
// pages. Every reader keeps reading the cold epoch it pinned before the
// write — materializing entities by CAS while the writer clones the
// same pages through the CAS path and publishes — alongside freshly
// pinned epochs. Run under -race this covers the CAS materialization
// path, the cloning of cold pages, and publishes sharing the cold epoch
// at once.
func TestColumnarLazyConcurrentReadersAndWriter(t *testing.T) {
	g, _ := lazyTestGraph(t)
	cold := g.View()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			<-start
			for round := 0; round < 20; round++ {
				for _, v := range []*View{cold, g.View()} {
					for _, id := range v.AllNodeIDs() {
						n := v.Node(id)
						if n == nil {
							t.Errorf("node %d vanished from pinned epoch", id)
							return
						}
						v.IncidentDo(id, Both, nil, func(r *Relationship) bool {
							_ = r.Props
							return true
						})
					}
					_, _ = v.NodesByLabelProp("AS", "asn", 1000+seed+int64(round))
				}
			}
			if got := len(cold.AllNodeIDs()); got != 50 {
				t.Errorf("the cold epoch lists %d nodes after the writes, want 50", got)
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 20; i++ {
			n := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": int64(50000 + i)})
			// Touch a loaded node's adjacency, so the publish clones a
			// page the cold readers are reading.
			g.MustCreateRelationship(n.ID, int64(1+i), "PEERS_WITH", nil)
			g.View() // force epoch publication between writes
		}
	}()
	close(start)
	wg.Wait()
	if problems := g.CheckIntegrity(); len(problems) > 0 {
		t.Fatalf("integrity after concurrent writes: %v", problems)
	}
	if got := g.NodeCount(); got != 70 {
		t.Fatalf("NodeCount = %d, want 70", got)
	}
}

// TestCollectStatsStaysCold checks the View-backed CollectStats against
// a count made entity by entity through the locked API of the original
// graph, on the cold load and on the original; that computing it
// neither clones a page of the cold load nor adopts an entity; and that
// it still counts right after the first write.
func TestCollectStatsStaysCold(t *testing.T) {
	cold, orig := lazyTestGraph(t)
	want := Stats{
		Nodes:         orig.NodeCount(),
		Relationships: orig.RelationshipCount(),
		NodesByLabel:  map[string]int{},
		RelsByType:    map[string]int{},
	}
	totalDeg := 0
	orig.ForEachNode(func(n *Node) bool {
		for _, l := range n.Labels {
			want.NodesByLabel[l]++
		}
		o, i := orig.Degree(n.ID, Outgoing), orig.Degree(n.ID, Incoming)
		want.MaxOutDegree = max(want.MaxOutDegree, o)
		want.MaxInDegree = max(want.MaxInDegree, i)
		totalDeg += o + i
		return true
	})
	orig.ForEachRelationship(func(r *Relationship) bool {
		want.RelsByType[r.Type]++
		return true
	})
	want.AvgDegree = float64(totalDeg) / float64(want.Nodes)

	for name, g := range map[string]*Graph{"cold": cold, "original": orig} {
		if got := g.CollectStats(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s graph: CollectStats = %+v, want %+v", name, got, want)
		}
	}
	pages := coldPages(cold)
	if pages == 0 || liveCount(cold) != 0 || cold.published.Load().lazy == nil {
		t.Fatal("CollectStats cloned a page of the cold graph or adopted an entity")
	}
	if _, err := cold.CreateNode([]string{"AS"}, nil); err != nil {
		t.Fatal(err)
	}
	if liveCount(cold) != 1 {
		t.Fatalf("the first write adopted %d entities, want the one it created", liveCount(cold))
	}
	want.Nodes++
	want.NodesByLabel["AS"]++
	want.AvgDegree = float64(totalDeg) / float64(want.Nodes)
	if got := cold.CollectStats(); !reflect.DeepEqual(got, want) {
		t.Errorf("after a write: CollectStats = %+v, want %+v", got, want)
	}
	if got := coldPages(cold); got != pages-1 {
		t.Errorf("the first publish left %d of %d cold pages, want all but the node page it wrote", got, pages)
	}
}
