package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"chatiyp/internal/cypher"
	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
	"chatiyp/internal/mmap"
)

// benchTargetEntities picks the dataset scale: the full 1M-entity world
// by default, a small one under -short so the CI runner stays fast.
func benchTargetEntities() int {
	if testing.Short() {
		return 60_000
	}
	return 1_000_000
}

type benchFixture struct {
	dir      string
	colPath  string
	entities int
	err      error
}

var (
	fixtureOnce sync.Once
	fixture     benchFixture
)

// getFixture builds the scaled world once per target size and caches
// its columnar snapshot in the system temp dir, so repeated bench runs
// skip the (slow) generation step.
func getFixture(b *testing.B) *benchFixture {
	b.Helper()
	fixtureOnce.Do(func() {
		target := benchTargetEntities()
		dir := filepath.Join(os.TempDir(), fmt.Sprintf("chatiyp-persist-bench-%d", target))
		fx := benchFixture{
			dir:     dir,
			colPath: filepath.Join(dir, "world.iypc"),
		}
		marker := filepath.Join(dir, "ready")
		if _, err := os.Stat(marker); err == nil {
			if data, err := os.ReadFile(marker); err == nil {
				fmt.Sscanf(string(data), "%d", &fx.entities)
			}
			fixture = fx
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fx.err = err
			fixture = fx
			return
		}
		g, _, err := iyp.Build(iyp.ScaleForEntities(target).Config())
		if err != nil {
			fx.err = err
			fixture = fx
			return
		}
		s := g.CollectStats()
		fx.entities = s.Nodes + s.Relationships
		if err := g.SaveFile(fx.colPath); err != nil {
			fx.err = err
		} else {
			fx.err = os.WriteFile(marker, []byte(fmt.Sprintf("%d", fx.entities)), 0o644)
		}
		fixture = fx
	})
	if fixture.err != nil {
		b.Fatal(fixture.err)
	}
	return &fixture
}

// BenchmarkColdStart measures time-to-queryable for the scaled world
// from its columnar snapshot: mmap + validate + publish.
func BenchmarkColdStart(b *testing.B) {
	fx := getFixture(b)
	b.Run("columnar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := mmap.Open(fx.colPath)
			if err != nil {
				b.Fatal(err)
			}
			g, _, err := graph.LoadColumnarBytes(m.Data, graph.ColLoadOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if g.NodeCount() == 0 {
				b.Fatal("empty graph")
			}
			// The graph is discarded before the next iteration; nothing
			// dereferences the mapping after this point.
			m.Close()
		}
		b.ReportMetric(float64(fx.entities), "entities")
	})
	b.Run("columnar-verified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := mmap.Open(fx.colPath)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := graph.LoadColumnarBytes(m.Data, graph.ColLoadOptions{VerifyChecksums: true}); err != nil {
				b.Fatal(err)
			}
			m.Close()
		}
	})
}

// BenchmarkWALAppend measures steady-state write throughput with the
// journal attached vs a bare in-memory graph; the wal=sync variant
// shows the full-durability (fsync per write) cost.
func BenchmarkWALAppend(b *testing.B) {
	run := func(b *testing.B, policy FsyncPolicy, journal bool) {
		g := graph.New()
		var s *Store
		if journal {
			dir := b.TempDir()
			if err := Init(dir, g); err != nil {
				b.Fatal(err)
			}
			var err error
			s, err = Open(dir, Options{Fsync: policy})
			if err != nil {
				b.Fatal(err)
			}
			g = s.Graph()
			defer s.Close()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.CreateNode([]string{"AS"}, map[string]any{"asn": int64(i), "name": "bench"}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if s != nil {
			if err := s.Err(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("wal=off", func(b *testing.B) { run(b, FsyncNever, false) })
	b.Run("wal=on", func(b *testing.B) { run(b, FsyncNever, true) })
	b.Run("wal=sync", func(b *testing.B) { run(b, FsyncAlways, true) })
}

// BenchmarkQueryAtScale runs representative query shapes against the
// mmap-loaded scaled world: an indexed point lookup, a 1-hop expansion,
// and a label scan with aggregation.
func BenchmarkQueryAtScale(b *testing.B) {
	fx := getFixture(b)
	m, err := mmap.Open(fx.colPath)
	if err != nil {
		b.Fatal(err)
	}
	g, _, err := graph.LoadColumnarBytes(m.Data, graph.ColLoadOptions{})
	if err != nil {
		b.Fatal(err)
	}
	// Pick a real ASN via a cheap scan so the corpus works at any scale.
	var asn int64
	ids := g.NodesByLabel("AS")
	if len(ids) == 0 {
		b.Fatal("no AS nodes")
	}
	asn, _ = g.Node(ids[len(ids)/2]).Prop("asn").(int64)
	queries := map[string]string{
		"point-lookup": fmt.Sprintf("MATCH (a:AS {asn:%d}) RETURN a.asn", asn),
		"one-hop":      fmt.Sprintf("MATCH (:AS {asn:%d})-[:ORIGINATE]->(p:Prefix) RETURN count(p)", asn),
		"aggregation":  "MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN c.country_code, count(a) ORDER BY count(a) DESC LIMIT 5",
	}
	for name, q := range queries {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cypher.Execute(g, q, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
