package graph_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
)

// coldSmallWorld returns a cold columnar load of the small world scaled
// by k (every count multiplied).
func coldSmallWorld(t testing.TB, k int) *graph.Graph {
	t.Helper()
	cfg := iyp.SmallConfig()
	cfg.NumASes *= k
	cfg.NumIXPs *= k
	cfg.NumFacilities *= k
	cfg.NumDomains *= k
	cfg.PrefixBudget *= k
	built, _, err := iyp.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := built.View().MarshalColumnar(graph.ColMeta{})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := graph.LoadColumnarBytes(data, graph.ColLoadOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRandomEditsOnColdSmallWorld drives seeded random writes — node
// and relationship creates and deletes, label changes, property writes
// and removals on indexed and unindexed keys, new indexes — into a cold
// load of the small world, publishing now and then, while a reader
// walks the published epochs. After every publish the epoch must equal
// one rebuilt from scratch, through every read and to the byte of its
// columnar encoding; after every eighth, its WriteJSONLines dump must
// load back into a graph that reads the same and dumps the same bytes.
// Between publishes the locked API, which reads the open edit, must
// read like the rebuilt epoch too.
func TestRandomEditsOnColdSmallWorld(t *testing.T) {
	g := coldSmallWorld(t, 1)
	rng := rand.New(rand.NewSource(42))
	labels := append(slices.Clone(g.Labels()), "Fresh")
	types := append(slices.Clone(g.RelationshipTypes()), "FRESH")
	keys := []string{"name", "asn", "country_code", "k"}
	pairs := [][2]string{{"AS", "name"}, {"Fresh", "k"}, {"Country", "k"}, {"Prefix", "asn"}}
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	node := func() int64 {
		ids := g.AllNodeIDs()
		return ids[rng.Intn(len(ids))]
	}
	val := func() any {
		switch rng.Intn(5) {
		case 0:
			return nil // removes the property
		case 1:
			return fmt.Sprint("v", rng.Intn(4))
		}
		return rng.Intn(4)
	}

	// A reader walks each epoch published while the writes go on: under
	// -race it checks that no write touches a published page, and that
	// cold pages are cloned only through the CAS path.
	published := make(chan *graph.View, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := range published {
			v.ForEachNode(func(n *graph.Node) bool {
				v.IncidentDo(n.ID, graph.Both, nil, func(r *graph.Relationship) bool { _ = r.Props; return true })
				_ = n.Props
				return true
			})
		}
	}()
	defer func() { close(published); wg.Wait() }()

	publishes := 0
	check := func(step string) {
		t.Helper()
		publishes++
		v := g.View()
		select {
		case published <- v:
		default: // the reader is still on an earlier one
		}
		graph.AssertViewsEqual(t, step, v, graph.RebuiltView(g))
		if publishes%8 != 0 && step != "end" {
			return
		}
		// The dump loads back into a graph that reads the same.
		var dump, again bytes.Buffer
		if err := g.WriteJSONLines(&dump); err != nil {
			t.Fatal(err)
		}
		h, err := graph.ReadJSONLines(bytes.NewReader(dump.Bytes()))
		if err != nil {
			t.Fatalf("%s: the dump does not load: %v", step, err)
		}
		if err := h.WriteJSONLines(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dump.Bytes(), again.Bytes()) {
			t.Fatalf("%s: the dump of the dump's load differs", step)
		}
		hv := h.View()
		if !slices.Equal(v.Labels(), hv.Labels()) || !reflect.DeepEqual(v.CollectStats(), hv.CollectStats()) {
			t.Fatalf("%s: the dump's load has labels %v, stats %+v; the epoch %v, %+v", step, hv.Labels(), hv.CollectStats(), v.Labels(), v.CollectStats())
		}
		for _, l := range v.Labels() {
			if !slices.Equal(v.NodesByLabel(l), hv.NodesByLabel(l)) {
				t.Fatalf("%s: label %s postings differ from the dump's load", step, l)
			}
		}
		// JSON keeps no float/int distinction, so values compare as
		// Cypher compares them.
		v.ForEachNode(func(n *graph.Node) bool {
			m := hv.Node(n.ID)
			if m == nil || !slices.Equal(n.Labels, m.Labels) || !sameProps(n.Props, m.Props) ||
				!slices.Equal(incident(v, n.ID), incident(hv, n.ID)) {
				t.Fatalf("%s: node %d is %v in the epoch, %v in the dump's load", step, n.ID, n, m)
			}
			return true
		})
		v.ForEachRelationship(func(r *graph.Relationship) bool {
			q := hv.Relationship(r.ID)
			if q == nil || q.Type != r.Type || q.StartID != r.StartID || q.EndID != r.EndID || !sameProps(r.Props, q.Props) {
				t.Fatalf("%s: relationship %d is %v in the epoch, %v in the dump's load", step, r.ID, r, q)
			}
			return true
		})
	}

	steps := 10_000
	if testing.Short() {
		steps = 1_500
	}
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 20:
			g.MustCreateNode([]string{pick(labels)}, map[string]any{pick(keys): rng.Intn(4)})
		case r < 40:
			g.MustCreateRelationship(node(), node(), pick(types), map[string]any{"w": rng.Intn(3)})
		case r < 47:
			if ids := g.AllRelationshipIDs(); len(ids) > 0 {
				if err := g.DeleteRelationship(ids[rng.Intn(len(ids))]); err != nil {
					t.Fatal(err)
				}
			}
		case r < 54:
			_ = g.DeleteNode(node(), rng.Intn(3) == 0) // ErrHasRels when attached and not detached
		case r < 62:
			if err := g.AddNodeLabel(node(), pick(labels)); err != nil {
				t.Fatal(err)
			}
		case r < 68:
			if err := g.RemoveNodeLabel(node(), pick(labels)); err != nil {
				t.Fatal(err)
			}
		case r < 86:
			if err := g.SetNodeProp(node(), pick(keys), val()); err != nil {
				t.Fatal(err)
			}
		case r < 97:
			if ids := g.AllRelationshipIDs(); len(ids) > 0 {
				if err := g.SetRelProp(ids[rng.Intn(len(ids))], "w", val()); err != nil {
					t.Fatal(err)
				}
			}
		default:
			p := pairs[rng.Intn(len(pairs))]
			g.CreateIndex(p[0], p[1])
		}
		if rng.Intn(400) == 0 {
			// The open edit, read through the locked API.
			want := graph.RebuiltView(g)
			graph.AssertReadersEqual(t, fmt.Sprintf("step %d (open edit)", step), g, want, g.AllNodeIDs()[len(g.AllNodeIDs())-1]+2, 4000)
		}
		if rng.Intn(50) == 0 {
			check(fmt.Sprintf("step %d", step))
		}
	}
	check("end")
	if publishes < 150 {
		t.Fatalf("only %d publishes were checked", publishes)
	}
}

func sameProps(a, b graph.Props) bool {
	return slices.EqualFunc(a, b, func(x, y graph.Prop) bool { return x.Key == y.Key && graph.ValuesEqual(x.Val, y.Val) })
}

func incident(v *graph.View, id int64) []int64 {
	var out []int64
	v.IncidentDo(id, graph.Both, nil, func(r *graph.Relationship) bool { out = append(out, r.ID); return true })
	return out
}

// TestFirstWriteAllocsDoNotScale: the first write on a cold load — a
// node, a relationship to a loaded node, a property write on that node,
// and the publish that follows — allocates the same on the small world
// as on one four times its size: the cost of the pages it touches. A
// first write that built a second copy of the world would allocate
// four times as much.
func TestFirstWriteAllocsDoNotScale(t *testing.T) {
	firstWrite := func(k int) uint64 {
		g := coldSmallWorld(t, k)
		before := g.View()
		// The last loaded node: the write then touches one page of each
		// table in either world, so the two compare like for like.
		anchor := before.AllNodeIDs()[before.NodeCount()-1]
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		n := g.MustCreateNode([]string{"Note"}, map[string]any{"id": 1})
		g.MustCreateRelationship(n.ID, anchor, "NOTED", nil)
		if err := g.SetNodeProp(anchor, "noted", true); err != nil {
			t.Fatal(err)
		}
		after := g.View()
		runtime.ReadMemStats(&m1)
		if after.Degree(anchor, graph.Incoming, "NOTED") != 1 || before.Degree(anchor, graph.Incoming, "NOTED") != 0 {
			t.Fatal("the write does not show in the next epoch only")
		}
		if problems := g.CheckIntegrity(); len(problems) > 0 {
			t.Fatalf("integrity: %v", problems)
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	small, big := firstWrite(1), firstWrite(4)
	t.Logf("first write and publish: %d bytes on the small world, %d on one 4x its size", small, big)
	if big > small+small/2 {
		t.Fatalf("the first write allocates %d bytes on the small world and %d on one 4x its size; it must not grow with the world", small, big)
	}
}
