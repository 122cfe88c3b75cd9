package cypher_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"chatiyp"
	"chatiyp/internal/cypher"
	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
	"chatiyp/internal/persist"
)

// stackOutcome is everything the whole stack answers about one graph:
// the boot-time stats, the read corpus through the pipeline, a few asks
// down both retrieval paths, and EXPLAIN of a read and of a write.
type stackOutcome struct {
	Stats    graph.Stats
	Queries  []string
	Asks     []string
	Explains []string
}

func renderResult(res *cypher.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintln(&b, res.Columns)
	for _, row := range res.Rows {
		for _, v := range row {
			b.WriteString(graph.FormatValue(v))
			b.WriteByte('\t')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func driveStack(t *testing.T, sys *chatiyp.System, asn int64, extraQueries ...string) stackOutcome {
	t.Helper()
	ctx := context.Background()
	out := stackOutcome{Stats: sys.Graph().CollectStats()}
	for _, q := range append(append([]string(nil), cypher.StreamEquivCorpus...), extraQueries...) {
		out.Queries = append(out.Queries, renderResult(sys.Pipeline().QueryContext(ctx, q, nil)))
	}
	var viaCypher, viaVector bool
	for _, q := range []string{
		fmt.Sprintf("How many prefixes does AS%d originate?", asn),
		fmt.Sprintf("In which country is AS%d registered?", asn),
		"Tell me something about internet exchange points and their member networks",
		"zzz qqq xxx",
	} {
		ans, err := sys.Ask(ctx, q)
		if err != nil {
			t.Fatalf("Ask(%q): %v", q, err)
		}
		viaCypher = viaCypher || (ans.Cypher != "" && len(ans.Rows) > 0)
		viaVector = viaVector || ans.UsedVectorFallback
		out.Asks = append(out.Asks, fmt.Sprintf("%s\ncypher: %s\nfallback: %v\ncontext: %v",
			ans.Text, ans.Cypher, ans.UsedVectorFallback, ans.Context))
	}
	if !viaCypher || !viaVector {
		t.Fatalf("the asks must cover both retrieval paths: cypher %v, vector fallback %v", viaCypher, viaVector)
	}
	for _, q := range []string{
		fmt.Sprintf("MATCH (a:AS) WHERE a.asn = %d RETURN a.name", asn),
		"MATCH (p:Prefix {af: 6}) RETURN count(p)",
		"MATCH (a:AS) WHERE a.asn = 1 SET a.seen = true",
	} {
		plan, err := sys.Explain(q)
		if err != nil {
			t.Fatalf("Explain(%q): %v", q, err)
		}
		out.Explains = append(out.Explains, plan)
	}
	return out
}

// TestColdStaysColdWholeStack boots the stack the way chatiyp-server
// does on a data directory — persist.Open with its read of the
// retrieval tier, chatiyp.FromGraphTier, the boot-time stats — and
// drives reads, asks and EXPLAIN through it from several goroutines.
// None of that may publish an epoch or adopt an entity of the cold
// columnar graph; and before and after the first write every answer
// must equal the answer of a graph that never was cold.
func TestColdStaysColdWholeStack(t *testing.T) {
	built, world, err := iyp.Build(iyp.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/data"
	if err := persist.Init(dir, built); err != nil {
		t.Fatal(err)
	}
	store, err := persist.Open(dir, persist.Options{Fsync: persist.FsyncNever, VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cold := store.Graph()

	// Open read and validated the retrieval tier against the cold graph,
	// and the pipeline adopts it, as chatiyp-server does.
	tier, _, err := store.Retrieval()
	if err != nil {
		t.Fatal(err)
	}
	opts := chatiyp.Options{Perfect: true}
	coldSys, err := chatiyp.FromGraphTier(cold, tier, opts)
	if err != nil {
		t.Fatal(err)
	}
	warmSys, err := chatiyp.FromGraph(built, world, opts)
	if err != nil {
		t.Fatal(err)
	}
	asn := world.ASes[0].ASN

	want := driveStack(t, warmSys, asn)
	var wg sync.WaitGroup
	got := make([]stackOutcome, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = driveStack(t, coldSys, asn)
		}()
	}
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("cold stack (goroutine %d) answers differently from the never-cold graph:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
	if _, publishes, ns := cold.SnapshotStats(); publishes != 1 || ns != 0 {
		t.Fatalf("boot, stats, reads, asks or EXPLAIN published %d epochs past the loaded one", publishes-1)
	}
	if c := coldSys.Pipeline().Metrics().Snapshot(); c["graph.publish_ns"] != 0 {
		t.Fatalf("metrics report a publish that did not happen: %v", c["graph.publish_ns"])
	}

	const write = "CREATE (n:StayCold {id: 1})"
	for _, sys := range []*chatiyp.System{coldSys, warmSys} {
		if _, err := sys.Pipeline().QueryContext(context.Background(), write, nil); err != nil {
			t.Fatal(err)
		}
	}
	const readBack = "MATCH (n:StayCold) RETURN n.id, labels(n)"
	if got, want := driveStack(t, coldSys, asn, readBack), driveStack(t, warmSys, asn, readBack); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the first write the two stacks answer differently:\n got %+v\nwant %+v", got, want)
	}
	// The read-back published the write's epoch, and the build time
	// shows up next to the publish count.
	if c := coldSys.Pipeline().Metrics().Snapshot(); c["graph.snapshot_publishes"] < 2 || c["graph.publish_ns"] <= 0 {
		t.Fatalf("metrics after the read-back: snapshot_publishes %v, publish_ns %v", c["graph.snapshot_publishes"], c["graph.publish_ns"])
	}
}
