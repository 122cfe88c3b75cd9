package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// colTestGraph builds a graph exercising every feature the columnar
// format must carry: multi-label nodes, every value type (nested lists
// and maps included), shared values, relationships with props,
// self-loops, ID gaps from deletions, label churn, and property
// indexes declared both before and after data existed.
func colTestGraph(t testing.TB) *Graph {
	t.Helper()
	g := New()
	g.CreateIndex("AS", "asn") // declared before any data
	var nodes []*Node
	for i := 0; i < 40; i++ {
		n := g.MustCreateNode([]string{"AS"}, map[string]any{
			"asn":     int64(100 + i),
			"name":    fmt.Sprintf("AS %d", i),
			"country": []string{"GR", "US", "JP"}[i%3], // shared values
			"ipv6":    i%2 == 0,
			"score":   float64(i) / 7.0,
			"tags":    []any{"tier1", int64(i % 4), nil},
			"contact": map[string]any{"email": "noc@example.net", "asn": int64(100 + i)},
		})
		nodes = append(nodes, n)
	}
	for i := 0; i < 10; i++ {
		g.MustCreateNode([]string{"IXP", "Org"}, map[string]any{"name": fmt.Sprintf("IXP-%d", i)})
	}
	g.MustCreateNode(nil, nil) // label-less, prop-less node
	for i := 0; i < 39; i++ {
		g.MustCreateRelationship(nodes[i].ID, nodes[i+1].ID, "PEERS_WITH", map[string]any{"since": int64(2000 + i)})
	}
	for i := 0; i < 20; i += 2 {
		g.MustCreateRelationship(nodes[i].ID, nodes[(i+5)%40].ID, "DEPENDS_ON", nil)
	}
	g.MustCreateRelationship(nodes[3].ID, nodes[3].ID, "PEERS_WITH", nil) // self-loop
	// Churn: deletions create ID gaps, label changes exercise the
	// byLabel tables.
	if err := g.DeleteNode(nodes[20].ID, true); err != nil {
		t.Fatal(err)
	}
	if err := g.DeleteRelationship(2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNodeLabel(nodes[5].ID, "Tier1"); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveNodeLabel(nodes[6].ID, "AS"); err != nil {
		t.Fatal(err)
	}
	g.CreateIndex("IXP", "name") // declared after data (backfill path)
	return g
}

// assertGraphsEquivalent compares two graphs structurally: entity
// tables, labels, types, adjacency order, index declarations, and
// per-entity contents.
func assertGraphsEquivalent(t *testing.T, want, got *Graph) {
	t.Helper()
	if issues := got.CheckIntegrity(); len(issues) > 0 {
		t.Fatalf("integrity: %v", issues)
	}
	if w, g := want.CollectStats(), got.CollectStats(); !reflect.DeepEqual(w, g) {
		t.Fatalf("stats mismatch:\nwant %+v\ngot  %+v", w, g)
	}
	if w, g := want.AllNodeIDs(), got.AllNodeIDs(); !reflect.DeepEqual(w, g) {
		t.Fatalf("node IDs mismatch: want %v got %v", w, g)
	}
	if w, g := want.AllRelationshipIDs(), got.AllRelationshipIDs(); !reflect.DeepEqual(w, g) {
		t.Fatalf("rel IDs mismatch: want %v got %v", w, g)
	}
	if w, g := want.Indexes(), got.Indexes(); !reflect.DeepEqual(w, g) {
		t.Fatalf("indexes mismatch: want %v got %v", w, g)
	}
	for _, id := range want.AllNodeIDs() {
		wn, gn := want.Node(id), got.Node(id)
		if gn == nil {
			t.Fatalf("node %d missing", id)
		}
		if !reflect.DeepEqual(wn.Labels, gn.Labels) && !(len(wn.Labels) == 0 && len(gn.Labels) == 0) {
			t.Fatalf("node %d labels: want %v got %v", id, wn.Labels, gn.Labels)
		}
		if !ValuesEqual(wn.Props, gn.Props) {
			t.Fatalf("node %d props: want %v got %v", id, wn.Props, gn.Props)
		}
		for _, dir := range []Direction{Outgoing, Incoming, Both} {
			wr, gr := want.Incident(id, dir), got.Incident(id, dir)
			if len(wr) != len(gr) {
				t.Fatalf("node %d incident(%v): want %d rels got %d", id, dir, len(wr), len(gr))
			}
			for i := range wr {
				if wr[i].ID != gr[i].ID || wr[i].Type != gr[i].Type {
					t.Fatalf("node %d incident(%v)[%d]: want %d/%s got %d/%s", id, dir, i, wr[i].ID, wr[i].Type, gr[i].ID, gr[i].Type)
				}
			}
		}
	}
	for _, id := range want.AllRelationshipIDs() {
		wr, gr := want.Relationship(id), got.Relationship(id)
		if gr == nil {
			t.Fatalf("rel %d missing", id)
		}
		if wr.Type != gr.Type || wr.StartID != gr.StartID || wr.EndID != gr.EndID || !ValuesEqual(wr.Props, gr.Props) {
			t.Fatalf("rel %d mismatch: want %+v got %+v", id, wr, gr)
		}
	}
	// Indexed lookups answer identically (and both from the index).
	for _, ix := range want.Indexes() {
		for _, id := range want.NodesByLabel(ix[0]) {
			v, ok := want.Node(id).Props[ix[1]]
			if !ok {
				continue
			}
			wids, wIdx := want.NodesByLabelProp(ix[0], ix[1], v)
			gids, gIdx := got.NodesByLabelProp(ix[0], ix[1], v)
			if !wIdx || !gIdx || !reflect.DeepEqual(wids, gids) {
				t.Fatalf("index lookup (%s,%s,%v): want %v(%v) got %v(%v)", ix[0], ix[1], v, wids, wIdx, gids, gIdx)
			}
		}
	}
}

func TestColumnarRoundTrip(t *testing.T) {
	g := colTestGraph(t)
	data, err := g.View().MarshalColumnar(ColMeta{LastSeq: 42, StoreID: 7})
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := LoadColumnarBytes(data, ColLoadOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.LastSeq != 42 || info.StoreID != 7 {
		t.Fatalf("meta round-trip: %+v", info)
	}
	if info.Version != g.Version() {
		t.Fatalf("version: stored %d, live %d", info.Version, g.Version())
	}
	assertGraphsEquivalent(t, g, got)

	// The loaded graph publishes its first epoch at load: a View pin
	// must not rebuild, and the loaded graph must stay fully mutable.
	pins, pubs := got.SnapshotStats()
	_ = got.View()
	if p2, pub2 := got.SnapshotStats(); pub2 != pubs || p2 != pins+1 {
		t.Fatalf("first View pin rebuilt the epoch (publishes %d -> %d)", pubs, pub2)
	}
	n := got.MustCreateNode([]string{"AS"}, map[string]any{"asn": int64(999)})
	if _, err := got.CreateRelationship(n.ID, got.AllNodeIDs()[0], "PEERS_WITH", nil); err != nil {
		t.Fatal(err)
	}
	if err := got.DeleteNode(n.ID, true); err != nil {
		t.Fatal(err)
	}
	if issues := got.CheckIntegrity(); len(issues) > 0 {
		t.Fatalf("post-write integrity: %v", issues)
	}
	// Mutating the loaded graph must not corrupt the epoch pinned
	// before the writes (the epoch aliases read-only file bytes).
	assertViewMatches(t, g, got)
}

// assertViewMatches checks a freshly pinned view of got against want.
func assertViewMatches(t *testing.T, want, got *Graph) {
	t.Helper()
	v := got.View()
	for _, id := range want.AllNodeIDs() {
		n := v.Node(id)
		if n == nil || !ValuesEqual(want.Node(id).Props, n.Props) {
			t.Fatalf("view node %d diverged", id)
		}
	}
}

func TestColumnarDeterministic(t *testing.T) {
	g := colTestGraph(t)
	a, err := g.View().MarshalColumnar(ColMeta{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.View().MarshalColumnar(ColMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same epoch marshaled to different bytes")
	}
}

func TestColumnarFileChain(t *testing.T) {
	// graph -> file -> graph -> file -> graph stays equivalent, and the
	// second file is byte-identical to the first.
	g := colTestGraph(t)
	dir := t.TempDir()
	path1 := filepath.Join(dir, "g1.iypc")
	path2 := filepath.Join(dir, "g2.iypc")
	if err := g.SaveFile(path1); err != nil {
		t.Fatal(err)
	}
	first, err := LoadFile(path1)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEquivalent(t, g, first)
	if err := first.SaveFile(path2); err != nil {
		t.Fatal(err)
	}
	second, err := LoadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEquivalent(t, g, second)
	b1, _ := os.ReadFile(path1)
	b2, _ := os.ReadFile(path2)
	if !bytes.Equal(b1, b2) {
		t.Error("save/load/save changed the file bytes")
	}
	if LastLoadNanos() <= 0 {
		t.Fatal("LoadFile did not record graph.load_ns")
	}
}

func TestColumnarEmptyGraph(t *testing.T) {
	g := New()
	data, err := g.View().MarshalColumnar(ColMeta{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadColumnarBytes(data, ColLoadOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.NodeCount() != 0 || got.RelationshipCount() != 0 {
		t.Fatalf("empty graph round-trip: %d nodes %d rels", got.NodeCount(), got.RelationshipCount())
	}
	if _, err := got.CreateNode([]string{"AS"}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestColumnarCorruptMatrix drives the corrupt-input hardening: every
// mutation of a valid file must produce a clean error (or, for
// payload-only damage, at worst load under a correct checksum) —
// never a panic.
func TestColumnarCorruptMatrix(t *testing.T) {
	valid, err := colTestGraph(t).View().MarshalColumnar(ColMeta{})
	if err != nil {
		t.Fatal(err)
	}
	load := func(b []byte) error {
		_, _, err := LoadColumnarBytes(b, ColLoadOptions{VerifyChecksums: true})
		return err
	}
	mutate := func(off int, b byte) []byte {
		cp := append([]byte(nil), valid...)
		cp[off] = b
		return cp
	}

	t.Run("truncations", func(t *testing.T) {
		// Every prefix must fail cleanly; step keeps the test fast.
		for ln := 0; ln < len(valid); ln += 97 {
			if load(valid[:ln]) == nil {
				t.Fatalf("truncation to %d bytes loaded", ln)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		if load(mutate(0, 'X')) == nil {
			t.Fatal("bad magic loaded")
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		if load(mutate(8, 99)) == nil {
			t.Fatal("bad version loaded")
		}
	})
	t.Run("bad-probe", func(t *testing.T) {
		if load(mutate(16, 0xFF)) == nil {
			t.Fatal("bad endian probe loaded")
		}
	})
	t.Run("bad-file-size", func(t *testing.T) {
		if load(mutate(24, ^valid[24])) == nil {
			t.Fatal("file-size mismatch loaded")
		}
	})
	t.Run("section-offset-oob", func(t *testing.T) {
		// First directory entry's offset -> far out of range; header
		// CRC is recomputed so the corruption reaches the span check.
		cp := append([]byte(nil), valid...)
		binary.NativeEndian.PutUint64(cp[colHeaderSize+8:], uint64(len(cp))+8)
		fixHeaderCRC(cp)
		if load(cp) == nil {
			t.Fatal("out-of-range section offset loaded")
		}
	})
	t.Run("section-misaligned", func(t *testing.T) {
		cp := append([]byte(nil), valid...)
		off := binary.NativeEndian.Uint64(cp[colHeaderSize+8:])
		binary.NativeEndian.PutUint64(cp[colHeaderSize+8:], off+4)
		fixHeaderCRC(cp)
		if load(cp) == nil {
			t.Fatal("misaligned section offset loaded")
		}
	})
	t.Run("directory-crc", func(t *testing.T) {
		// Directory damage without a recomputed CRC is caught by the
		// header checksum itself.
		if load(mutate(colHeaderSize+8, ^valid[colHeaderSize+8])) == nil {
			t.Fatal("directory corruption loaded")
		}
	})
	t.Run("payload-flips", func(t *testing.T) {
		// Flip a byte at every position in the section payloads (past
		// the directory): with checksums on, each must be rejected.
		dirEnd := colHeaderSize + len(colRequiredSections)*colDirEntrySize
		step := 211
		for off := dirEnd; off < len(valid); off += step {
			cp := mutate(off, valid[off]^0x5A)
			if load(cp) == nil {
				t.Fatalf("payload flip at %d loaded", off)
			}
		}
	})
	t.Run("payload-flips-unverified", func(t *testing.T) {
		// Without checksum verification the structural validators are
		// the only defense: they may accept semantically damaged but
		// well-formed data, yet must never panic.
		dirEnd := colHeaderSize + len(colRequiredSections)*colDirEntrySize
		step := 127
		for off := dirEnd; off < len(valid); off += step {
			cp := mutate(off, valid[off]^0x5A)
			_, _, _ = LoadColumnarBytes(cp, ColLoadOptions{})
		}
	})
}

// fixHeaderCRC recomputes the header checksum after a deliberate
// directory mutation, so the test reaches the deeper validator.
func fixHeaderCRC(b []byte) {
	count := binary.NativeEndian.Uint32(b[12:])
	dirEnd := colHeaderSize + int(count)*colDirEntrySize
	binary.NativeEndian.PutUint32(b[32:], headerCRCOf(b[:dirEnd]))
}

func FuzzLoadColumnar(f *testing.F) {
	valid, err := colTestGraph(f).View().MarshalColumnar(ColMeta{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:colHeaderSize])
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(colMagic))
	empty, _ := New().View().MarshalColumnar(ColMeta{})
	f.Add(empty)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic, with or without checksum verification.
		g, _, err := LoadColumnarBytes(data, ColLoadOptions{VerifyChecksums: true})
		if err == nil && g == nil {
			t.Fatal("nil graph without error")
		}
		g2, _, _ := LoadColumnarBytes(data, ColLoadOptions{})
		if g2 != nil {
			_ = g2.View() // a structurally accepted graph must be pinnable
		}
	})
}
