package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCreateAndGetNode(t *testing.T) {
	g := New()
	n, err := g.CreateNode([]string{"AS"}, map[string]any{"asn": 2497, "name": "IIJ"})
	if err != nil {
		t.Fatal(err)
	}
	got := g.Node(n.ID)
	if got == nil {
		t.Fatal("node not found after create")
	}
	if got.Prop("asn") != int64(2497) {
		t.Errorf("asn = %v, want int64(2497)", got.Prop("asn"))
	}
	if !got.HasLabel("AS") {
		t.Error("label AS missing")
	}
	if got.HasLabel("Prefix") {
		t.Error("unexpected label Prefix")
	}
}

func TestLabelsSorted(t *testing.T) {
	g := New()
	n := g.MustCreateNode([]string{"Zeta", "Alpha", "Mid"}, nil)
	want := []string{"Alpha", "Mid", "Zeta"}
	if !reflect.DeepEqual(n.Labels, want) {
		t.Errorf("labels = %v, want %v", n.Labels, want)
	}
}

func TestCreateRelationship(t *testing.T) {
	g := New()
	a := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": 1})
	b := g.MustCreateNode([]string{"Prefix"}, map[string]any{"prefix": "192.0.2.0/24"})
	r, err := g.CreateRelationship(a.ID, b.ID, "ORIGINATE", map[string]any{"count": 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.StartID != a.ID || r.EndID != b.ID {
		t.Error("endpoints wrong")
	}
	out := g.Incident(a.ID, Outgoing)
	if len(out) != 1 || out[0].ID != r.ID {
		t.Errorf("outgoing = %v", out)
	}
	in := g.Incident(b.ID, Incoming)
	if len(in) != 1 || in[0].ID != r.ID {
		t.Errorf("incoming = %v", in)
	}
	if len(g.Incident(a.ID, Incoming)) != 0 {
		t.Error("a should have no incoming rels")
	}
}

func TestCreateRelationshipMissingEndpoint(t *testing.T) {
	g := New()
	a := g.MustCreateNode([]string{"AS"}, nil)
	if _, err := g.CreateRelationship(a.ID, 9999, "X", nil); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("err = %v, want ErrNodeNotFound", err)
	}
	if _, err := g.CreateRelationship(9999, a.ID, "X", nil); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("err = %v, want ErrNodeNotFound", err)
	}
}

func TestIncidentTypeFilter(t *testing.T) {
	g := New()
	a := g.MustCreateNode([]string{"AS"}, nil)
	b := g.MustCreateNode([]string{"AS"}, nil)
	g.MustCreateRelationship(a.ID, b.ID, "PEERS_WITH", nil)
	g.MustCreateRelationship(a.ID, b.ID, "DEPENDS_ON", nil)
	if got := g.Incident(a.ID, Outgoing, "PEERS_WITH"); len(got) != 1 || got[0].Type != "PEERS_WITH" {
		t.Errorf("filtered incident = %v", got)
	}
	if got := g.Incident(a.ID, Both); len(got) != 2 {
		t.Errorf("Both should see 2 rels, got %d", len(got))
	}
}

func TestSelfLoopCountedOnce(t *testing.T) {
	g := New()
	a := g.MustCreateNode([]string{"AS"}, nil)
	g.MustCreateRelationship(a.ID, a.ID, "SIBLING_OF", nil)
	if got := g.Incident(a.ID, Both); len(got) != 1 {
		t.Errorf("self-loop seen %d times in Both, want 1", len(got))
	}
}

func TestNodesByLabel(t *testing.T) {
	g := New()
	var want []int64
	for i := 0; i < 5; i++ {
		n := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": i})
		want = append(want, n.ID)
	}
	g.MustCreateNode([]string{"Prefix"}, nil)
	got := g.NodesByLabel("AS")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NodesByLabel = %v, want %v", got, want)
	}
	if got := g.NodesByLabel("Nope"); len(got) != 0 {
		t.Errorf("unknown label should be empty, got %v", got)
	}
}

func TestPropertyIndexLookup(t *testing.T) {
	g := New()
	g.CreateIndex("AS", "asn")
	for i := 0; i < 100; i++ {
		g.MustCreateNode([]string{"AS"}, map[string]any{"asn": i})
	}
	ids, indexed := g.NodesByLabelProp("AS", "asn", 42)
	if !indexed {
		t.Error("lookup should use the index")
	}
	if len(ids) != 1 {
		t.Fatalf("want 1 hit, got %d", len(ids))
	}
	if g.Node(ids[0]).Prop("asn") != int64(42) {
		t.Error("wrong node returned")
	}
}

func TestPropertyIndexBackfill(t *testing.T) {
	g := New()
	for i := 0; i < 50; i++ {
		g.MustCreateNode([]string{"AS"}, map[string]any{"asn": i})
	}
	g.CreateIndex("AS", "asn") // created after the fact
	ids, indexed := g.NodesByLabelProp("AS", "asn", 7)
	if !indexed || len(ids) != 1 {
		t.Fatalf("backfilled index lookup failed: indexed=%v hits=%d", indexed, len(ids))
	}
}

func TestIndexFallbackScan(t *testing.T) {
	g := New()
	g.MustCreateNode([]string{"AS"}, map[string]any{"asn": 5})
	ids, indexed := g.NodesByLabelProp("AS", "asn", 5)
	if indexed {
		t.Error("no index exists; lookup must report scan")
	}
	if len(ids) != 1 {
		t.Errorf("scan found %d, want 1", len(ids))
	}
}

func TestIndexStaysConsistentUnderUpdates(t *testing.T) {
	g := New()
	g.CreateIndex("AS", "asn")
	n := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": 1})
	if err := g.SetNodeProp(n.ID, "asn", 2); err != nil {
		t.Fatal(err)
	}
	if ids, _ := g.NodesByLabelProp("AS", "asn", 1); len(ids) != 0 {
		t.Errorf("stale index entry for old value: %v", ids)
	}
	if ids, _ := g.NodesByLabelProp("AS", "asn", 2); len(ids) != 1 {
		t.Errorf("missing index entry for new value")
	}
	if err := g.SetNodeProp(n.ID, "asn", nil); err != nil {
		t.Fatal(err)
	}
	if ids, _ := g.NodesByLabelProp("AS", "asn", 2); len(ids) != 0 {
		t.Errorf("stale index entry after property removal: %v", ids)
	}
}

func TestDeleteNodeRules(t *testing.T) {
	g := New()
	a := g.MustCreateNode([]string{"AS"}, nil)
	b := g.MustCreateNode([]string{"AS"}, nil)
	g.MustCreateRelationship(a.ID, b.ID, "PEERS_WITH", nil)
	if err := g.DeleteNode(a.ID, false); !errors.Is(err, ErrHasRels) {
		t.Errorf("delete with rels should fail, got %v", err)
	}
	if err := g.DeleteNode(a.ID, true); err != nil {
		t.Fatalf("detach delete failed: %v", err)
	}
	if g.Node(a.ID) != nil {
		t.Error("node still present")
	}
	if g.RelationshipCount() != 0 {
		t.Error("relationship not cascaded")
	}
	if len(g.Incident(b.ID, Both)) != 0 {
		t.Error("b still sees deleted rel")
	}
	if problems := g.CheckIntegrity(); len(problems) != 0 {
		t.Errorf("integrity problems: %v", problems)
	}
}

func TestDeleteRelationship(t *testing.T) {
	g := New()
	a := g.MustCreateNode([]string{"AS"}, nil)
	b := g.MustCreateNode([]string{"AS"}, nil)
	r := g.MustCreateRelationship(a.ID, b.ID, "PEERS_WITH", nil)
	if err := g.DeleteRelationship(r.ID); err != nil {
		t.Fatal(err)
	}
	if g.Relationship(r.ID) != nil {
		t.Error("rel still present")
	}
	if err := g.DeleteRelationship(r.ID); !errors.Is(err, ErrRelNotFound) {
		t.Errorf("double delete err = %v", err)
	}
}

func TestStats(t *testing.T) {
	g := New()
	a := g.MustCreateNode([]string{"AS"}, nil)
	b := g.MustCreateNode([]string{"Prefix"}, nil)
	g.MustCreateRelationship(a.ID, b.ID, "ORIGINATE", nil)
	s := g.CollectStats()
	if s.Nodes != 2 || s.Relationships != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.NodesByLabel["AS"] != 1 || s.RelsByType["ORIGINATE"] != 1 {
		t.Errorf("stats maps = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty stats rendering")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := New()
	g.CreateIndex("AS", "asn")
	a := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": 2497, "tags": []string{"isp", "jp"}})
	b := g.MustCreateNode([]string{"Country"}, map[string]any{"country_code": "JP"})
	g.MustCreateRelationship(a.ID, b.ID, "COUNTRY", map[string]any{"reference_org": "NRO"})

	path := filepath.Join(t.TempDir(), "graph.iypc")
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NodeCount() != 2 || g2.RelationshipCount() != 1 {
		t.Fatalf("restored counts: %d nodes %d rels", g2.NodeCount(), g2.RelationshipCount())
	}
	n := g2.Node(a.ID)
	if n == nil || n.Prop("asn") != int64(2497) {
		t.Errorf("restored node = %v", n)
	}
	tags, ok := n.Prop("tags").([]Value)
	if !ok || len(tags) != 2 || tags[0] != "isp" {
		t.Errorf("restored list prop = %v", n.Prop("tags"))
	}
	if !g2.HasIndex("AS", "asn") {
		t.Error("index lost in round trip")
	}
	ids, indexed := g2.NodesByLabelProp("AS", "asn", 2497)
	if !indexed || len(ids) != 1 {
		t.Errorf("restored index lookup: indexed=%v hits=%d", indexed, len(ids))
	}
	// New entities must not collide with restored IDs.
	c := g2.MustCreateNode([]string{"AS"}, nil)
	if c.ID == a.ID || c.ID == b.ID {
		t.Error("ID collision after restore")
	}
	if problems := g2.CheckIntegrity(); len(problems) != 0 {
		t.Errorf("integrity: %v", problems)
	}
}

// gobSnapshotHeader is how a snapshot file written by older releases
// began: a gob stream whose first message defines the snapshot struct.
var gobSnapshotHeader = []byte("\\\x7f\x03\x01\x01\bsnapshot\x01\xff\x80\x00\x01\x06\x01\aVersion\x01\x04\x00\x01\bNextNode\x01\x04\x00")

// TestSnapshotRejectsGarbage: LoadFile reads only IYPCOL1 snapshots, so
// anything else — including the JSONL interchange format and the gob
// stream older releases wrote — is a clean error, never a panic.
func TestSnapshotRejectsGarbage(t *testing.T) {
	g := New()
	g.MustCreateNode([]string{"AS"}, map[string]any{"asn": 1})
	var jsonl bytes.Buffer
	if err := g.WriteJSONLines(&jsonl); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"garbage": []byte("not a snapshot"),
		"empty":   nil,
		"jsonl":   jsonl.Bytes(),
		"gob":     gobSnapshotHeader,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadFile(path)
		if err == nil || !strings.Contains(err.Error(), "not an IYPCOL1 snapshot") {
			t.Errorf("%s: LoadFile error = %v, want a not-an-IYPCOL1-snapshot error", name, err)
		}
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	g := New()
	g.CreateIndex("AS", "asn")
	seed := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": 0})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				n := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": w*1000 + i})
				g.MustCreateRelationship(seed.ID, n.ID, "PEERS_WITH", nil)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g.NodesByLabel("AS")
				g.Incident(seed.ID, Outgoing)
				g.NodesByLabelProp("AS", "asn", i)
				g.CollectStats()
			}
		}()
	}
	wg.Wait()
	if g.NodeCount() != 401 {
		t.Errorf("node count = %d, want 401", g.NodeCount())
	}
	if problems := g.CheckIntegrity(); len(problems) != 0 {
		t.Errorf("integrity: %v", problems)
	}
}

func TestIntegrityOnRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New()
	g.CreateIndex("N", "k")
	var nodeIDs, relIDs []int64
	for op := 0; op < 2000; op++ {
		switch rng.Intn(5) {
		case 0, 1: // create node
			n := g.MustCreateNode([]string{"N"}, map[string]any{"k": rng.Intn(50)})
			nodeIDs = append(nodeIDs, n.ID)
		case 2: // create rel
			if len(nodeIDs) >= 2 {
				a := nodeIDs[rng.Intn(len(nodeIDs))]
				b := nodeIDs[rng.Intn(len(nodeIDs))]
				if r, err := g.CreateRelationship(a, b, "R", nil); err == nil {
					relIDs = append(relIDs, r.ID)
				}
			}
		case 3: // delete node (detach)
			if len(nodeIDs) > 0 {
				i := rng.Intn(len(nodeIDs))
				_ = g.DeleteNode(nodeIDs[i], true)
				nodeIDs = append(nodeIDs[:i], nodeIDs[i+1:]...)
			}
		case 4: // update prop
			if len(nodeIDs) > 0 {
				_ = g.SetNodeProp(nodeIDs[rng.Intn(len(nodeIDs))], "k", rng.Intn(50))
			}
		}
	}
	if problems := g.CheckIntegrity(); len(problems) != 0 {
		t.Fatalf("integrity after random ops: %v", problems[:minInt(5, len(problems))])
	}
	// Index agrees with a full scan for every key.
	for k := 0; k < 50; k++ {
		idx, _ := g.NodesByLabelProp("N", "k", k)
		var scan []int64
		for _, id := range g.NodesByLabel("N") {
			if v := g.Node(id).Prop("k"); v == int64(k) {
				scan = append(scan, id)
			}
		}
		if !reflect.DeepEqual(idx, scan) {
			t.Fatalf("index/scan divergence for k=%d: %v vs %v", k, idx, scan)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestNormalizeValue(t *testing.T) {
	cases := []struct {
		in   any
		want Value
	}{
		{42, int64(42)},
		{uint8(7), int64(7)},
		{float32(1.5), float64(1.5)},
		{"x", "x"},
		{true, true},
		{nil, nil},
		{[]int{1, 2}, []Value{int64(1), int64(2)}},
		{[]string{"a"}, []Value{"a"}},
		{map[string]any{"k": 1}, map[string]Value{"k": int64(1)}},
	}
	for _, c := range cases {
		got, err := NormalizeValue(c.in)
		if err != nil {
			t.Errorf("NormalizeValue(%v): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("NormalizeValue(%v) = %#v, want %#v", c.in, got, c.want)
		}
	}
	if _, err := NormalizeValue(struct{}{}); err == nil {
		t.Error("struct value should be rejected")
	}
	if _, err := NormalizeValue(map[string]any{"bad": struct{}{}}); err == nil {
		t.Error("nested invalid value should be rejected")
	}
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		a, b       Value
		cmp        int
		comparable bool
	}{
		{int64(1), int64(2), -1, true},
		{int64(2), float64(2.0), 0, true},
		{float64(3.5), int64(3), 1, true},
		{"a", "b", -1, true},
		{true, false, 1, true},
		{nil, nil, 0, true},
		{nil, int64(1), 0, false},
		{"a", int64(1), 0, false},
		{[]Value{int64(1)}, []Value{int64(1), int64(2)}, -1, true},
		{[]Value{int64(2)}, []Value{int64(1), int64(9)}, 1, true},
	}
	for _, c := range cases {
		cmp, ok := CompareValues(c.a, c.b)
		if ok != c.comparable || (ok && cmp != c.cmp) {
			t.Errorf("CompareValues(%v,%v) = (%d,%v), want (%d,%v)", c.a, c.b, cmp, ok, c.cmp, c.comparable)
		}
	}
}

func TestValuesEqualSemantics(t *testing.T) {
	if !ValuesEqual(int64(2), float64(2)) {
		t.Error("2 == 2.0 must hold")
	}
	if ValuesEqual(nil, nil) {
		t.Error("null = null must be false (three-valued logic)")
	}
	if !ValuesEqual(map[string]Value{"a": int64(1)}, map[string]Value{"a": float64(1)}) {
		t.Error("map equality with numeric unification failed")
	}
	if ValuesEqual(map[string]Value{"a": int64(1)}, map[string]Value{"b": int64(1)}) {
		t.Error("different keys must not be equal")
	}
}

func TestValueKeyGroupsEquivalentValues(t *testing.T) {
	if ValueKey(int64(2)) != ValueKey(float64(2)) {
		t.Error("2 and 2.0 must share a grouping key")
	}
	if ValueKey("2") == ValueKey(int64(2)) {
		t.Error("string \"2\" must not collide with number 2")
	}
	f := func(a, b string) bool {
		if a == b {
			return ValueKey(a) == ValueKey(b)
		}
		return ValueKey(a) != ValueKey(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTotalLessIsStrictWeakOrder(t *testing.T) {
	vals := []Value{nil, true, false, int64(1), float64(2.5), "a", "b",
		[]Value{int64(1)}, []Value{"x"}}
	for _, a := range vals {
		if TotalLess(a, a) {
			t.Errorf("TotalLess(%v,%v) must be false (irreflexive)", a, a)
		}
		for _, b := range vals {
			if TotalLess(a, b) && TotalLess(b, a) {
				t.Errorf("TotalLess not antisymmetric for %v,%v", a, b)
			}
		}
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		in   Value
		want string
	}{
		{nil, "null"},
		{int64(42), "42"},
		{float64(2.5), "2.5"},
		{float64(3), "3.0"},
		{"text", "text"},
		{true, "true"},
		{[]Value{int64(1), "a"}, `[1, "a"]`},
		{map[string]Value{"b": int64(2), "a": int64(1)}, "{a: 1, b: 2}"},
	}
	for _, c := range cases {
		if got := FormatValue(c.in); got != c.want {
			t.Errorf("FormatValue(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNodeString(t *testing.T) {
	g := New()
	n := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": 2497})
	if got := n.String(); got != "(:AS {asn: 2497})" {
		t.Errorf("node string = %q", got)
	}
}

func TestPathString(t *testing.T) {
	g := New()
	a := g.MustCreateNode([]string{"AS"}, nil)
	b := g.MustCreateNode([]string{"AS"}, nil)
	r := g.MustCreateRelationship(a.ID, b.ID, "PEERS_WITH", nil)
	p := Path{Nodes: []*Node{a, b}, Rels: []*Relationship{r}}
	want := "(:AS)-[:PEERS_WITH]->(:AS)"
	if got := p.String(); got != want {
		t.Errorf("path string = %q, want %q", got, want)
	}
	if p.Len() != 1 {
		t.Errorf("path len = %d", p.Len())
	}
}

func TestForEachEarlyStop(t *testing.T) {
	g := New()
	for i := 0; i < 10; i++ {
		g.MustCreateNode([]string{"N"}, nil)
	}
	count := 0
	g.ForEachNode(func(*Node) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := New()
	g.MustCreateNode([]string{"AS"}, map[string]any{"asn": 1})
	path := t.TempDir() + "/graph.iypc"
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !SniffColumnar(data) {
		t.Fatalf("SaveFile did not write IYPCOL1: %q", data[:min(8, len(data))])
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NodeCount() != 1 {
		t.Error("load mismatch")
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Error("missing file should error")
	}
}

func BenchmarkCreateNode(b *testing.B) {
	g := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.MustCreateNode([]string{"AS"}, map[string]any{"asn": i})
	}
}

func BenchmarkIndexedLookup(b *testing.B) {
	g := New()
	g.CreateIndex("AS", "asn")
	for i := 0; i < 10000; i++ {
		g.MustCreateNode([]string{"AS"}, map[string]any{"asn": i})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.NodesByLabelProp("AS", "asn", i%10000)
	}
}

func BenchmarkScanLookup(b *testing.B) {
	g := New()
	for i := 0; i < 10000; i++ {
		g.MustCreateNode([]string{"AS"}, map[string]any{"asn": i})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.NodesByLabelProp("AS", "asn", i%10000)
	}
}

func BenchmarkIncident(b *testing.B) {
	g := New()
	hub := g.MustCreateNode([]string{"IXP"}, nil)
	for i := 0; i < 1000; i++ {
		n := g.MustCreateNode([]string{"AS"}, nil)
		g.MustCreateRelationship(n.ID, hub.ID, "MEMBER_OF", nil)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Incident(hub.ID, Incoming, "MEMBER_OF")
	}
}

func ExampleGraph() {
	g := New()
	as := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": 2497})
	jp := g.MustCreateNode([]string{"Country"}, map[string]any{"country_code": "JP"})
	g.MustCreateRelationship(as.ID, jp.ID, "COUNTRY", nil)
	fmt.Println(g.NodeCount(), g.RelationshipCount())
	// Output: 2 1
}

func TestJSONLinesRoundTrip(t *testing.T) {
	g := New()
	g.CreateIndex("AS", "asn")
	a := g.MustCreateNode([]string{"AS"}, map[string]any{"asn": 2497, "share": 5.2, "tags": []string{"isp"}})
	b := g.MustCreateNode([]string{"Country"}, map[string]any{"country_code": "JP"})
	g.MustCreateRelationship(a.ID, b.ID, "COUNTRY", map[string]any{"reference_org": "NRO"})

	var buf bytes.Buffer
	if err := g.WriteJSONLines(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadJSONLines(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NodeCount() != 2 || g2.RelationshipCount() != 1 {
		t.Fatalf("counts = %d/%d", g2.NodeCount(), g2.RelationshipCount())
	}
	n := g2.Node(a.ID)
	if n.Prop("asn") != int64(2497) {
		t.Errorf("int prop became %T %v", n.Prop("asn"), n.Prop("asn"))
	}
	if n.Prop("share") != 5.2 {
		t.Errorf("float prop = %v", n.Prop("share"))
	}
	if !g2.HasIndex("AS", "asn") {
		t.Error("index lost")
	}
	ids, indexed := g2.NodesByLabelProp("AS", "asn", 2497)
	if !indexed || len(ids) != 1 {
		t.Errorf("restored index lookup failed: %v %v", indexed, ids)
	}
	if problems := g2.CheckIntegrity(); len(problems) != 0 {
		t.Errorf("integrity: %v", problems)
	}
	// New IDs continue past imported ones.
	c := g2.MustCreateNode([]string{"X"}, nil)
	if c.ID <= b.ID {
		t.Errorf("ID sequence regressed: %d", c.ID)
	}
}

func TestJSONLinesRejectsDanglingRel(t *testing.T) {
	input := `{"kind":"node","id":1,"labels":["A"]}
{"kind":"rel","id":1,"type":"R","start":1,"end":99}`
	if _, err := ReadJSONLines(bytes.NewReader([]byte(input))); err == nil {
		t.Error("dangling endpoint accepted")
	}
}

func TestJSONLinesRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONLines(bytes.NewReader([]byte("not json"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadJSONLines(bytes.NewReader([]byte(`{"kind":"mystery"}`))); err == nil {
		t.Error("unknown record kind accepted")
	}
}

func TestVersionBumpsOnWrites(t *testing.T) {
	g := New()
	v := g.Version()
	n1 := g.MustCreateNode([]string{"A"}, map[string]any{"x": 1})
	if g.Version() <= v {
		t.Fatal("CreateNode did not bump version")
	}
	v = g.Version()
	n2 := g.MustCreateNode([]string{"A"}, nil)
	r := g.MustCreateRelationship(n1.ID, n2.ID, "R", nil)
	if g.Version() != v+2 {
		t.Fatalf("expected +2 after node+rel, got %d -> %d", v, g.Version())
	}
	steps := []func() error{
		func() error { return g.SetNodeProp(n1.ID, "x", 2) },
		func() error { return g.SetRelProp(r.ID, "w", 1) },
		func() error { return g.AddNodeLabel(n2.ID, "B") },
		func() error { return g.RemoveNodeLabel(n2.ID, "B") },
		func() error { g.CreateIndex("A", "x"); return nil },
		func() error { return g.DeleteRelationship(r.ID) },
		func() error { return g.DeleteNode(n2.ID, false) },
	}
	for i, step := range steps {
		v = g.Version()
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if g.Version() != v+1 {
			t.Fatalf("step %d: version %d -> %d, want +1", i, v, g.Version())
		}
	}
	// Idempotent no-ops do not bump.
	v = g.Version()
	g.CreateIndex("A", "x")
	if err := g.AddNodeLabel(n1.ID, "A"); err != nil {
		t.Fatal(err)
	}
	if g.Version() != v {
		t.Fatalf("no-op writes bumped version: %d -> %d", v, g.Version())
	}
}
