package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestViewSnapshotIsolation pins a view, mutates the graph in every
// way the write API allows, and checks the pinned epoch still shows
// the pre-write state while a fresh view shows the post-write state.
func TestViewSnapshotIsolation(t *testing.T) {
	g := New()
	g.CreateIndex("AS", "asn")
	a := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": 1, "name": "one"})
	b := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": 2})
	c := g.MustCreateNode([]string{"Country"}, map[string]any{"country_code": "JP"})
	r1 := g.MustCreateRelationship(a.ID, b.ID, "PEERS_WITH", map[string]any{"weight": int64(7)})
	g.MustCreateRelationship(a.ID, c.ID, "COUNTRY", nil)

	v := g.View()

	// Mutate everything after the pin.
	if err := g.SetNodeProp(a.ID, "name", "changed"); err != nil {
		t.Fatal(err)
	}
	if err := g.SetRelProp(r1.ID, "weight", int64(99)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNodeLabel(b.ID, "Tagged"); err != nil {
		t.Fatal(err)
	}
	d := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": 3})
	g.MustCreateRelationship(a.ID, d.ID, "PEERS_WITH", nil)
	if err := g.DeleteRelationship(r1.ID); err != nil {
		t.Fatal(err)
	}
	if err := g.DeleteNode(c.ID, true); err != nil {
		t.Fatal(err)
	}

	// The pinned epoch is frozen at pin time.
	if got := v.Node(a.ID).Prop("name"); got != "one" {
		t.Errorf("pinned node prop = %v, want old value \"one\"", got)
	}
	if v.Node(d.ID) != nil {
		t.Error("pinned view sees node created after the pin")
	}
	if v.Node(c.ID) == nil {
		t.Error("pinned view lost node deleted after the pin")
	}
	if got := v.Relationship(r1.ID); got == nil {
		t.Error("pinned view lost relationship deleted after the pin")
	} else if got.Prop("weight") != int64(7) {
		t.Errorf("pinned rel prop = %v, want old value 7", got.Prop("weight"))
	}
	if got := len(v.Incident(a.ID, Outgoing, "PEERS_WITH")); got != 1 {
		t.Errorf("pinned typed degree = %d, want 1", got)
	}
	if got := len(v.NodesByLabel("AS")); got != 2 {
		t.Errorf("pinned label scan = %d nodes, want 2", got)
	}
	if ids, used := v.NodesByLabelProp("AS", "asn", 3); used && len(ids) != 0 {
		t.Errorf("pinned index lookup sees post-pin node: %v", ids)
	}
	if v.Node(b.ID).HasLabel("Tagged") {
		t.Error("pinned view sees post-pin label")
	}

	// A fresh pin sees everything.
	v2 := g.View()
	if got := v2.Node(a.ID).Prop("name"); got != "changed" {
		t.Errorf("fresh view node prop = %v, want \"changed\"", got)
	}
	if v2.Node(d.ID) == nil || v2.Node(c.ID) != nil || v2.Relationship(r1.ID) != nil {
		t.Error("fresh view does not reflect post-pin writes")
	}
	if got := len(v2.Incident(a.ID, Outgoing, "PEERS_WITH")); got != 1 {
		t.Errorf("fresh typed degree = %d, want 1 (old deleted, new added)", got)
	}
	if !v2.Node(b.ID).HasLabel("Tagged") {
		t.Error("fresh view missing post-pin label")
	}
	if v.Version() == v2.Version() {
		t.Error("distinct epochs share a version")
	}
}

// TestViewMatchesLiveGraph drives a long random mutation sequence and
// repeatedly checks that an incrementally published epoch is
// indistinguishable from the live locked read API at the same version
// — the end-to-end correctness proof for the copy-on-write publisher's
// dirty tracking.
func TestViewMatchesLiveGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := New()
	g.CreateIndex("N", "k")
	labels := []string{"N", "M", "O"}
	relTypes := []string{"A", "B", "C"}
	var nodeIDs, relIDs []int64

	check := func(step int) {
		t.Helper()
		v := g.View()
		if v.Version() != g.Version() {
			t.Fatalf("step %d: view version %d != graph version %d", step, v.Version(), g.Version())
		}
		if !reflect.DeepEqual(v.AllNodeIDs(), g.AllNodeIDs()) {
			t.Fatalf("step %d: AllNodeIDs mismatch\nview: %v\nlive: %v", step, v.AllNodeIDs(), g.AllNodeIDs())
		}
		if v.NodeCount() != g.NodeCount() || v.RelationshipCount() != g.RelationshipCount() {
			t.Fatalf("step %d: counts mismatch", step)
		}
		if !reflect.DeepEqual(v.Labels(), g.Labels()) {
			t.Fatalf("step %d: labels mismatch: %v vs %v", step, v.Labels(), g.Labels())
		}
		if !reflect.DeepEqual(v.RelationshipTypes(), g.RelationshipTypes()) {
			t.Fatalf("step %d: rel types mismatch", step)
		}
		for _, l := range g.Labels() {
			if !reflect.DeepEqual(append([]int64{}, v.NodesByLabel(l)...), g.NodesByLabel(l)) {
				t.Fatalf("step %d: NodesByLabel(%s) mismatch", step, l)
			}
		}
		for _, id := range g.AllNodeIDs() {
			ln, vn := g.Node(id), v.Node(id)
			if vn == nil {
				t.Fatalf("step %d: view missing node %d", step, id)
			}
			if !reflect.DeepEqual(ln.Labels, vn.Labels) || !reflect.DeepEqual(ln.Props, vn.Props) {
				t.Fatalf("step %d: node %d content mismatch\nlive: %v %v\nview: %v %v",
					step, id, ln.Labels, ln.Props, vn.Labels, vn.Props)
			}
			for _, dir := range []Direction{Outgoing, Incoming, Both} {
				for _, types := range [][]string{nil, {"A"}, {"A", "C"}} {
					lr := g.Incident(id, dir, types...)
					vr := v.Incident(id, dir, types...)
					if len(lr) != len(vr) {
						t.Fatalf("step %d: node %d dir %d types %v: incident count %d vs %d",
							step, id, dir, types, len(lr), len(vr))
					}
					for i := range lr {
						if lr[i].ID != vr[i].ID || !reflect.DeepEqual(lr[i].Props, vr[i].Props) {
							t.Fatalf("step %d: node %d incident[%d] mismatch", step, id, i)
						}
					}
					if got, want := v.Degree(id, dir, types...), g.Degree(id, dir, types...); got != want {
						t.Fatalf("step %d: node %d degree %d vs %d", step, id, got, want)
					}
				}
			}
		}
		for k := 0; k < 5; k++ {
			lids, lused := g.NodesByLabelProp("N", "k", k)
			vids, vused := v.NodesByLabelProp("N", "k", k)
			if lused != vused || !reflect.DeepEqual(append([]int64{}, vids...), append([]int64{}, lids...)) {
				t.Fatalf("step %d: NodesByLabelProp(N,k,%d) mismatch (%v/%v vs %v/%v)",
					step, k, vids, vused, lids, lused)
			}
		}
	}

	for op := 0; op < 1500; op++ {
		switch r := rng.Intn(100); {
		case r < 35 || len(nodeIDs) == 0:
			ls := []string{labels[rng.Intn(len(labels))]}
			if rng.Intn(3) == 0 {
				ls = append(ls, labels[rng.Intn(len(labels))])
			}
			n := g.MustCreateNode(ls, map[string]any{"k": rng.Intn(5)})
			nodeIDs = append(nodeIDs, n.ID)
		case r < 60:
			a := nodeIDs[rng.Intn(len(nodeIDs))]
			b := nodeIDs[rng.Intn(len(nodeIDs))] // self-loops allowed
			rel, err := g.CreateRelationship(a, b, relTypes[rng.Intn(len(relTypes))], map[string]any{"w": rng.Intn(10)})
			if err == nil {
				relIDs = append(relIDs, rel.ID)
			}
		case r < 70:
			_ = g.SetNodeProp(nodeIDs[rng.Intn(len(nodeIDs))], "k", rng.Intn(5))
		case r < 76 && len(relIDs) > 0:
			_ = g.SetRelProp(relIDs[rng.Intn(len(relIDs))], "w", rng.Intn(10))
		case r < 82:
			_ = g.AddNodeLabel(nodeIDs[rng.Intn(len(nodeIDs))], labels[rng.Intn(len(labels))])
		case r < 86:
			_ = g.RemoveNodeLabel(nodeIDs[rng.Intn(len(nodeIDs))], labels[rng.Intn(len(labels))])
		case r < 92 && len(relIDs) > 0:
			i := rng.Intn(len(relIDs))
			_ = g.DeleteRelationship(relIDs[i])
			relIDs = append(relIDs[:i], relIDs[i+1:]...)
		default:
			i := rng.Intn(len(nodeIDs))
			_ = g.DeleteNode(nodeIDs[i], true)
			nodeIDs = append(nodeIDs[:i], nodeIDs[i+1:]...)
		}
		if op%150 == 0 {
			check(op)
		}
	}
	check(1500)
	if problems := g.CheckIntegrity(); len(problems) != 0 {
		t.Fatalf("integrity: %v", problems)
	}
}

// TestViewIncidentOrderAndDedup checks ascending-ID enumeration and
// self-loop dedup across directions and type filters, against the
// locked implementation.
func TestViewIncidentOrderAndDedup(t *testing.T) {
	g := New()
	n := g.MustCreateNode([]string{"N"}, nil)
	m := g.MustCreateNode([]string{"N"}, nil)
	g.MustCreateRelationship(n.ID, m.ID, "A", nil) // 1: out
	g.MustCreateRelationship(m.ID, n.ID, "B", nil) // 2: in
	g.MustCreateRelationship(n.ID, n.ID, "A", nil) // 3: self-loop
	g.MustCreateRelationship(n.ID, m.ID, "B", nil) // 4: out
	g.MustCreateRelationship(m.ID, n.ID, "A", nil) // 5: in
	v := g.View()
	for _, tc := range []struct {
		dir   Direction
		types []string
		want  []int64
	}{
		{Both, nil, []int64{1, 2, 3, 4, 5}},
		{Outgoing, nil, []int64{1, 3, 4}},
		{Incoming, nil, []int64{2, 3, 5}},
		{Both, []string{"A"}, []int64{1, 3, 5}},
		{Both, []string{"A", "B"}, []int64{1, 2, 3, 4, 5}},
		{Both, []string{"B", "A"}, []int64{1, 2, 3, 4, 5}},
		{Outgoing, []string{"B"}, []int64{4}},
		{Both, []string{"MISSING"}, nil},
	} {
		var got []int64
		v.IncidentDo(n.ID, tc.dir, tc.types, func(r *Relationship) bool {
			got = append(got, r.ID)
			return true
		})
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("view dir=%d types=%v: got %v, want %v", tc.dir, tc.types, got, tc.want)
		}
		var live []int64
		for _, r := range g.Incident(n.ID, tc.dir, tc.types...) {
			live = append(live, r.ID)
		}
		if !reflect.DeepEqual(live, tc.want) {
			t.Errorf("locked dir=%d types=%v: got %v, want %v", tc.dir, tc.types, live, tc.want)
		}
		if d := v.Degree(n.ID, tc.dir, tc.types...); d != len(tc.want) {
			t.Errorf("view degree dir=%d types=%v = %d, want %d", tc.dir, tc.types, d, len(tc.want))
		}
		if d := g.Degree(n.ID, tc.dir, tc.types...); d != len(tc.want) {
			t.Errorf("locked degree dir=%d types=%v = %d, want %d", tc.dir, tc.types, d, len(tc.want))
		}
	}
	// Early stop is honored.
	count := 0
	if completed := v.IncidentDo(n.ID, Both, nil, func(*Relationship) bool { count++; return count < 2 }); completed {
		t.Error("IncidentDo reported completion despite early stop")
	}
	if count != 2 {
		t.Errorf("early stop visited %d rels, want 2", count)
	}
}

// TestViewConcurrentReadersAndWriters hammers the lock-free path under
// the race detector: writers mutate while readers pin views and check
// each pinned epoch is internally consistent.
func TestViewConcurrentReadersAndWriters(t *testing.T) {
	g := New()
	g.CreateIndex("AS", "asn")
	seed := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": 0})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				n := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": w*1000 + i + 1})
				r := g.MustCreateRelationship(seed.ID, n.ID, "PEERS_WITH", nil)
				if i%3 == 0 {
					_ = g.SetNodeProp(n.ID, "name", fmt.Sprintf("as-%d-%d", w, i))
				}
				if i%7 == 0 {
					_ = g.DeleteRelationship(r.ID)
				}
			}
		}(w)
	}
	for rdr := 0; rdr < 4; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				v := g.View()
				// Every node a label scan returns must resolve, and every
				// incident rel's endpoints must resolve — within one epoch
				// that is an invariant no concurrent write may break.
				for _, id := range v.NodesByLabel("AS") {
					if v.Node(id) == nil {
						t.Error("epoch label scan returned unresolvable node")
						return
					}
				}
				n := 0
				v.IncidentDo(seed.ID, Outgoing, []string{"PEERS_WITH"}, func(r *Relationship) bool {
					if v.Node(r.EndID) == nil {
						t.Error("epoch adjacency points at unresolvable node")
						return false
					}
					n++
					return true
				})
				if d := v.Degree(seed.ID, Outgoing, "PEERS_WITH"); d != n {
					t.Errorf("epoch degree %d != walked %d", d, n)
					return
				}
			}
		}()
	}
	wg.Wait()
	if problems := g.CheckIntegrity(); len(problems) != 0 {
		t.Fatalf("integrity: %v", problems)
	}
}

// TestJSONLinesDuplicateRelRecords pins last-record-wins semantics for
// duplicated rel IDs in a JSONL file: the old query-time seen-map
// dedup is gone, so the loader must withdraw the earlier record's
// adjacency entries and type count.
func TestJSONLinesDuplicateRelRecords(t *testing.T) {
	input := `{"kind":"node","id":1,"labels":["N"]}
{"kind":"node","id":2,"labels":["N"]}
{"kind":"rel","id":7,"type":"A","start":1,"end":2}
{"kind":"rel","id":7,"type":"B","start":2,"end":1}
`
	g, err := ReadJSONLines(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if problems := g.CheckIntegrity(); len(problems) != 0 {
		t.Fatalf("integrity: %v", problems)
	}
	if got := g.Incident(2, Outgoing); len(got) != 1 || got[0].Type != "B" {
		t.Fatalf("Incident after duplicate load = %v", got)
	}
	if got := g.Degree(1, Both); got != 1 {
		t.Fatalf("Degree = %d, want 1 (last record wins)", got)
	}
	if got := g.RelationshipTypes(); len(got) != 1 || got[0] != "B" {
		t.Fatalf("RelationshipTypes = %v, want [B]", got)
	}
	v := g.View()
	if got := v.Degree(1, Both); got != 1 {
		t.Fatalf("view Degree = %d, want 1", got)
	}
}

// TestJSONLinesDuplicateNodeRecords pins the node half of the loader's
// last-record-wins contract: earlier records' label-set and
// property-index entries are withdrawn.
func TestJSONLinesDuplicateNodeRecords(t *testing.T) {
	input := `{"kind":"index","label":"A","property":"x"}
{"kind":"node","id":1,"labels":["A"],"props":{"x":1}}
{"kind":"node","id":1,"labels":["B"],"props":{"x":2}}
`
	g, err := ReadJSONLines(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if problems := g.CheckIntegrity(); len(problems) != 0 {
		t.Fatalf("integrity: %v", problems)
	}
	if got := g.NodesByLabel("A"); len(got) != 0 {
		t.Fatalf("stale label entry survives duplicate: %v", got)
	}
	if got := g.NodesByLabel("B"); len(got) != 1 {
		t.Fatalf("NodesByLabel(B) = %v, want the last record", got)
	}
	if ids, _ := g.NodesByLabelProp("A", "x", 1); len(ids) != 0 {
		t.Fatalf("stale index entry survives duplicate: %v", ids)
	}
	g.View() // must not panic and must agree with the live graph
}

// TestLoadersRejectInvalidIDs: epoch tables are ID-indexed, so
// non-positive IDs — which the map-based live graph would tolerate —
// must be rejected at load time instead of crashing the first pin.
func TestLoadersRejectInvalidIDs(t *testing.T) {
	if _, err := ReadJSONLines(strings.NewReader(`{"kind":"node","id":-1,"labels":["A"]}`)); err == nil {
		t.Error("negative node id accepted")
	}
	if _, err := ReadJSONLines(strings.NewReader(`{"kind":"node","labels":["A"]}`)); err == nil {
		t.Error("zero node id accepted")
	}
	g, _ := ReadJSONLines(strings.NewReader(`{"kind":"node","id":1,"labels":["A"]}
{"kind":"rel","id":-5,"type":"T","start":1,"end":1}`))
	if g != nil {
		t.Error("negative rel id accepted")
	}
}

// TestSnapshotStats checks the pin/publish counters: pins count every
// View call, publishes only epochs actually rebuilt, and publish time
// accumulates only while building.
func TestSnapshotStats(t *testing.T) {
	g := New()
	g.MustCreateNode([]string{"N"}, nil)
	pins0, pubs0, ns0 := g.SnapshotStats()
	g.View()
	g.View()
	g.View()
	pins, pubs, ns := g.SnapshotStats()
	if ns0 != 0 || ns <= 0 {
		t.Errorf("publish nanos %d -> %d, want 0 -> > 0", ns0, ns)
	}
	if pins-pins0 != 3 {
		t.Errorf("pins moved by %d, want 3", pins-pins0)
	}
	if pubs-pubs0 != 1 {
		t.Errorf("publishes moved by %d, want 1 (no writes between pins)", pubs-pubs0)
	}
	g.MustCreateNode([]string{"N"}, nil)
	g.MustCreateNode([]string{"N"}, nil) // write burst: still one publish
	g.View()
	g.View()
	pins2, pubs2, _ := g.SnapshotStats()
	if pins2-pins != 2 || pubs2-pubs != 1 {
		t.Errorf("after write burst: pins %d publishes %d, want 2 and 1", pins2-pins, pubs2-pubs)
	}
}
