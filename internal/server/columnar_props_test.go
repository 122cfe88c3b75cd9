package server

import (
	"net/http"
	"testing"

	"chatiyp/internal/core"
	"chatiyp/internal/cypher"
	"chatiyp/internal/graph"
	"chatiyp/internal/llm"
	"chatiyp/internal/persist"
)

// TestColumnarPropsWireContract pins the /v1/cypher bytes of nodes and
// relationships with 0, 1 and 3 properties, read three ways: from a
// cold columnar load, from that load after its first write, and from a
// store whose entities come back by WAL replay after a kill. Property order, number formatting, HTML escaping and {} for an
// entity without properties are all part of the wire contract.
func TestColumnarPropsWireContract(t *testing.T) {
	const create = `CREATE (a:P)-[:R]->(b:P {k: 1})-[:R {w: 0.5}]->` +
		`(c:P {k: 2, name: 'a<b>&c', tags: ['x', 'y']})-[:R {z: 1, b: 'two', a: true}]->(a)`
	const read = "MATCH (n:P)-[r:R]->() RETURN n, r ORDER BY id(r)"
	const want = `{"columns":["n","r"],"rows":[` +
		`[{"ID":1,"Labels":["P"],"Props":{}},{"ID":1,"Type":"R","StartID":1,"EndID":2,"Props":{}}],` +
		`[{"ID":2,"Labels":["P"],"Props":{"k":1}},{"ID":2,"Type":"R","StartID":2,"EndID":3,"Props":{"w":0.5}}],` +
		`[{"ID":3,"Labels":["P"],"Props":{"k":2,"name":"a\u003cb\u003e\u0026c","tags":["x","y"]}},` +
		`{"ID":3,"Type":"R","StartID":3,"EndID":1,"Props":{"a":true,"b":"two","z":1}}]],` +
		`"stats":{"nodes_created":0,"nodes_deleted":0,"relationships_created":0,"relationships_deleted":0,` +
		`"properties_set":0,"labels_added":0,"labels_removed":0},"truncated":false}` + "\n"

	serve := func(g *graph.Graph) http.Handler {
		p, err := core.New(core.Config{Graph: g, Model: llm.NewSim(llm.DefaultSimConfig(core.BuildLexicon(g)))})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Pipeline: p})
		if err != nil {
			t.Fatal(err)
		}
		return s.Handler()
	}
	query := func(what string, h http.Handler, src string) string {
		t.Helper()
		rec := postJSON(t, h, "/v1/cypher", CypherRequest{Query: src})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %s: %d %s", what, src, rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	check := func(what string, h http.Handler) {
		t.Helper()
		if got := query(what, h, read); got != want {
			t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
		}
	}

	// Cold load of a base snapshot, then the same graph after a write.
	built := graph.New()
	if _, err := cypher.Execute(built, create, nil); err != nil {
		t.Fatal(err)
	}
	baseDir := t.TempDir()
	if err := persist.Init(baseDir, built); err != nil {
		t.Fatal(err)
	}
	st, err := persist.Open(baseDir, persist.Options{Fsync: persist.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := serve(st.Graph())
	check("cold load", h)
	if _, publishes, _ := st.Graph().SnapshotStats(); publishes != 1 {
		t.Fatalf("reading published %d epochs past the loaded one", publishes-1)
	}
	query("first write", h, "CREATE (:Other {k: 9})")
	check("after the first write", h)
	if _, publishes, _ := st.Graph().SnapshotStats(); publishes != 2 {
		t.Fatalf("%d publishes after the first write and a read, want 2", publishes)
	}

	// The same entities written through the server into the journal of
	// an empty base, then recovered by replay without a Close.
	walDir := t.TempDir()
	if err := persist.Init(walDir, graph.New()); err != nil {
		t.Fatal(err)
	}
	killed, err := persist.Open(walDir, persist.Options{Fsync: persist.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	query("journaled write", serve(killed.Graph()), create)
	replayed, err := persist.Open(walDir, persist.Options{Fsync: persist.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	defer killed.Close()
	if replayed.ReplayCount() == 0 {
		t.Fatal("nothing was replayed from the journal")
	}
	check("after WAL replay", serve(replayed.Graph()))
}
