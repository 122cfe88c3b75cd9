package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"chatiyp/internal/cypher"
	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
)

// equivalenceCorpus is the query set every persisted form of a graph
// must answer identically. Results are rendered to a canonical string
// so "bit-identical" is literal: same columns, same rows, same order,
// same value types.
func equivalenceCorpus(w *iyp.World) []string {
	asn0 := w.ASes[0].ASN
	return []string{
		"MATCH (a:AS) RETURN count(a)",
		"MATCH (p:Prefix) RETURN count(p)",
		"MATCH (a:AS) RETURN a.asn ORDER BY a.asn LIMIT 25",
		fmt.Sprintf("MATCH (a:AS {asn:%d})-[:NAME]->(n:Name) RETURN n.name", asn0),
		fmt.Sprintf("MATCH (:AS {asn:%d})-[:ORIGINATE]->(p:Prefix) RETURN p.prefix ORDER BY p.prefix", asn0),
		fmt.Sprintf("MATCH (:AS {asn:%d})-[d:DEPENDS_ON]->(b:AS) RETURN b.asn, d.hegemony ORDER BY b.asn", asn0),
		"MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN c.country_code, count(a) ORDER BY c.country_code LIMIT 20",
		"MATCH (a:AS)-[:MEMBER_OF]->(i:IXP) RETURN i.name, count(a) ORDER BY i.name LIMIT 10",
		"MATCH (d:DomainName)-[:RESOLVES_TO]->(:IP)-[:PART_OF]->(:Prefix)<-[:ORIGINATE]-(a:AS) RETURN d.name, a.asn ORDER BY d.name LIMIT 15",
		"MATCH (a:AS)-[r:RANK]->(:Ranking) WHERE r.rank <= 5 RETURN a.asn, r.rank ORDER BY r.rank, a.asn",
	}
}

func corpusFingerprint(tb testing.TB, g *graph.Graph, corpus []string) string {
	tb.Helper()
	var buf bytes.Buffer
	for _, q := range corpus {
		res, err := cypher.Execute(g, q, nil)
		if err != nil {
			tb.Fatalf("query %q: %v", q, err)
		}
		fmt.Fprintf(&buf, "## %s\n%v\n", q, res.Columns)
		for _, row := range res.Rows {
			for _, v := range row {
				fmt.Fprintf(&buf, "%T:%v|", v, v)
			}
			buf.WriteByte('\n')
		}
	}
	return buf.String()
}

// TestPersistedFormsAnswerIdentically is the acceptance gate for the
// persistence tier: the same world loaded through the columnar snapshot
// and through a WAL replay must produce bit-identical answers to the
// whole corpus.
func TestPersistedFormsAnswerIdentically(t *testing.T) {
	g0, w := iyp.MustBuild(iyp.SmallConfig())
	corpus := equivalenceCorpus(w)
	want := corpusFingerprint(t, g0, corpus)
	dir := t.TempDir()

	// Form 1: the columnar snapshot file.
	colPath := filepath.Join(dir, "world.iypc")
	if err := g0.SaveFile(colPath); err != nil {
		t.Fatal(err)
	}
	gCol, err := graph.LoadFile(colPath)
	if err != nil {
		t.Fatal(err)
	}

	// Form 2: WAL replay — start a store from the columnar base, apply
	// writes, crash, reopen.
	pdir := filepath.Join(dir, "store")
	if err := Init(pdir, g0); err != nil {
		t.Fatal(err)
	}
	s, err := Open(pdir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	extraChecks := scriptedWrites(t, s.Graph(), 12)
	// The writes change corpus answers (they add AS nodes), so the
	// replay baseline is the live graph AFTER the writes.
	wantReplay := corpusFingerprint(t, s.Graph(), corpus)
	// No Close: crash simulation.
	s2, err := Open(pdir, Options{Fsync: FsyncNever, VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	defer s.Close()
	extraChecks(t, s2.Graph(), 12)
	if msgs := s2.Graph().CheckIntegrity(); len(msgs) != 0 {
		t.Fatalf("post-replay: integrity: %v", msgs)
	}
	if got := corpusFingerprint(t, s2.Graph(), corpus); got != wantReplay {
		t.Error("post-replay: corpus fingerprint diverges from pre-crash graph")
	}

	if msgs := gCol.CheckIntegrity(); len(msgs) != 0 {
		t.Fatalf("columnar: integrity: %v", msgs)
	}
	if got := corpusFingerprint(t, gCol, corpus); got != want {
		t.Errorf("columnar: corpus fingerprint diverges from in-memory build\n got %d bytes\nwant %d bytes", len(got), len(want))
	}

	// The snapshot file must itself be a stable artifact: re-saving the
	// loaded graph reproduces identical bytes.
	colPath2 := filepath.Join(dir, "world2.iypc")
	if err := gCol.SaveFile(colPath2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(colPath)
	b2, _ := os.ReadFile(colPath2)
	if !bytes.Equal(b1, b2) {
		t.Error("columnar snapshot is not byte-stable across save/load/save")
	}
}
