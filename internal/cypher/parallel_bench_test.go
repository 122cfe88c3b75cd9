package cypher

import (
	"fmt"
	"math/rand"
	"testing"

	"chatiyp/internal/graph"
)

// Benchmarks for the morsel-driven parallel executor: each family runs
// a serial baseline plus forced-parallel variants at 1/2/4/8 workers
// over the same prepared query, so one run shows both the scaling curve
// and the 1-worker overhead against serial. Results are bounded by num_cpu —
// on a 1-core machine every worker count collapses to ~serial speed.

// parallelBenchGraph builds a seeded scan/expand workload: n :V nodes
// with a selective x property and 2n :E relationships.
func parallelBenchGraph(b *testing.B, n int) *graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	g := graph.New()
	ids := make([]int64, n)
	for i := 0; i < n; i++ {
		ids[i] = g.MustCreateNode([]string{"V"}, map[string]any{
			"i": i,
			"x": rng.Intn(1000),
		}).ID
	}
	for i := 0; i < n*2; i++ {
		a, c := rng.Intn(n), rng.Intn(n)
		if a == c {
			continue
		}
		g.MustCreateRelationship(ids[a], ids[c], "E", map[string]any{"w": rng.Intn(100)})
	}
	return g
}

// benchParallelQuery runs one query serial and at fixed worker counts
// with the planner threshold forced off, so the morsel machinery is
// exercised even below the cardinality cutoff.
func benchParallelQuery(b *testing.B, src string) {
	nodes := 20000
	if testing.Short() {
		nodes = 2000
	}
	g := parallelBenchGraph(b, nodes)
	pq, err := Prepare(src)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, opts Options) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pq.Execute(g, nil, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) {
		run(b, Options{MaxParallelism: 1})
	})
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			run(b, Options{MaxParallelism: w, ParallelThreshold: -1})
		})
	}
}

func BenchmarkParallelScan(b *testing.B) {
	benchParallelQuery(b, "MATCH (v:V) WHERE v.x < 500 RETURN v.i")
}

func BenchmarkParallelExpand(b *testing.B) {
	benchParallelQuery(b, "MATCH (a:V)-[:E]->(b:V) WHERE b.x >= 250 RETURN b.i")
}

func BenchmarkParallelTopK(b *testing.B) {
	benchParallelQuery(b, "MATCH (a:V)-[:E]->(b:V) RETURN b.i AS i, b.x AS x ORDER BY x DESC LIMIT 16")
}
