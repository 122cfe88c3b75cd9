package iyp

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"chatiyp/internal/graph"
)

// smallSnapshotSHA256 pins the IYPCOL1 bytes of SmallConfig's world.
// The format, the encoder's ordering and the generator all feed it; a
// change to any of them must update it on purpose.
const (
	smallSnapshotSHA256 = "720b90533b1e19bf5c7d6608f71a112669f532b790a188a4f7ab0b288d64839c"
	smallSnapshotBytes  = 280120
)

// TestColumnarPropsSnapshotPinned: the snapshot of the small world is
// byte-for-byte the pinned one, whether it is encoded from the built
// graph, from a cold load of it, or from that load after the locked API
// adopted one of its nodes.
func TestColumnarPropsSnapshotPinned(t *testing.T) {
	g, _ := buildSmall(t)
	check := func(what string, g *graph.Graph) []byte {
		t.Helper()
		data, err := g.View().MarshalColumnar(graph.ColMeta{})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != smallSnapshotSHA256 || len(data) != smallSnapshotBytes {
			t.Fatalf("%s: snapshot is %d bytes, sha256 %s; want %d bytes, %s",
				what, len(data), got, smallSnapshotBytes, smallSnapshotSHA256)
		}
		return data
	}
	data := check("built graph", g)
	cold, _, err := graph.LoadColumnarBytes(data, graph.ColLoadOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	check("cold load", cold)
	if n := cold.Node(1); n == nil || g.Node(1).String() != n.String() {
		t.Fatalf("the cold load's node 1 is %v, the built graph's %v", n, g.Node(1))
	}
	check("cold load after a locked read", cold)
}

// BenchmarkColdMaterialize reads every node and relationship of a fresh
// cold load of the small world once: the per-entity materialization a
// first full scan pays. B/op and allocs/op are the figures to watch.
func BenchmarkColdMaterialize(b *testing.B) {
	g, _ := buildSmall(b)
	data, err := g.View().MarshalColumnar(graph.ColMeta{})
	if err != nil {
		b.Fatal(err)
	}
	nodeIDs, relIDs := g.AllNodeIDs(), g.AllRelationshipIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cold, _, err := graph.LoadColumnarBytes(data, graph.ColLoadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		v := cold.View()
		b.StartTimer()
		for _, id := range nodeIDs {
			if v.Node(id) == nil {
				b.Fatalf("node %d missing", id)
			}
		}
		for _, id := range relIDs {
			if v.Relationship(id) == nil {
				b.Fatalf("relationship %d missing", id)
			}
		}
	}
}
