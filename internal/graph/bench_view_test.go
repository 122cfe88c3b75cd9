package graph

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// Benchmarks for the graph read path: per-hop expansion cost on the
// locked live graph vs the lock-free snapshot view, and multi-core
// read-throughput scaling.
//
// The headline claims: typed single-hop expansion through a View is
// allocation-free in the steady state, and concurrent read-only
// traversal throughput scales with goroutines (up to the machine's
// cores — the JSON records num_cpu) instead of serializing on the
// global RWMutex.

var benchSink atomic.Int64

// buildTraversalGraph builds an IYP-shaped benchmark graph: nAS AS
// nodes, 50 Country nodes, 200 IXP nodes; each AS gets 4 PEERS_WITH, 2
// MEMBER_OF and 1 COUNTRY outgoing relationships.
func buildTraversalGraph(nAS int) (*Graph, []int64) {
	rng := rand.New(rand.NewSource(1))
	g := New()
	ids := make([]int64, nAS)
	for i := 0; i < nAS; i++ {
		ids[i] = g.MustCreateNode([]string{"AS"}, map[string]any{"asn": i}).ID
	}
	var countries, ixps []int64
	for i := 0; i < 50; i++ {
		countries = append(countries, g.MustCreateNode([]string{"Country"}, map[string]any{"country_code": fmt.Sprintf("C%d", i)}).ID)
	}
	for i := 0; i < 200; i++ {
		ixps = append(ixps, g.MustCreateNode([]string{"IXP"}, map[string]any{"name": fmt.Sprintf("IXP-%d", i)}).ID)
	}
	for _, id := range ids {
		for p := 0; p < 4; p++ {
			g.MustCreateRelationship(id, ids[rng.Intn(nAS)], "PEERS_WITH", nil)
		}
		for m := 0; m < 2; m++ {
			g.MustCreateRelationship(id, ixps[rng.Intn(len(ixps))], "MEMBER_OF", nil)
		}
		g.MustCreateRelationship(id, countries[rng.Intn(len(countries))], "COUNTRY", nil)
	}
	return g, ids
}

// BenchmarkTypedHop measures one typed single-hop expansion — the
// matcher's innermost operation. The view variant must report 0
// allocs/op: a bucket lookup plus a linear walk of pre-sorted
// relationship pointers.
func BenchmarkTypedHop(b *testing.B) {
	g, ids := buildTraversalGraph(5000)
	types := []string{"PEERS_WITH"}
	b.Run("view", func(b *testing.B) {
		v := g.View()
		b.ReportAllocs()
		b.ResetTimer()
		n := int64(0)
		for i := 0; i < b.N; i++ {
			v.IncidentDo(ids[i%len(ids)], Outgoing, types, func(r *Relationship) bool {
				n++
				return true
			})
		}
		benchSink.Add(n)
	})
	b.Run("locked", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		n := int64(0)
		for i := 0; i < b.N; i++ {
			for _, r := range g.Incident(ids[i%len(ids)], Outgoing, "PEERS_WITH") {
				_ = r
				n++
			}
		}
		benchSink.Add(n)
	})
}

// BenchmarkUntypedHop is the same comparison for unfiltered expansion
// (walks the pre-merged all-relationships list).
func BenchmarkUntypedHop(b *testing.B) {
	g, ids := buildTraversalGraph(5000)
	b.Run("view", func(b *testing.B) {
		v := g.View()
		b.ReportAllocs()
		b.ResetTimer()
		n := int64(0)
		for i := 0; i < b.N; i++ {
			v.IncidentDo(ids[i%len(ids)], Outgoing, nil, func(r *Relationship) bool {
				n++
				return true
			})
		}
		benchSink.Add(n)
	})
	b.Run("locked", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		n := int64(0)
		for i := 0; i < b.N; i++ {
			for _, r := range g.Incident(ids[i%len(ids)], Outgoing) {
				_ = r
				n++
			}
		}
		benchSink.Add(n)
	})
}

// BenchmarkDegreeTyped measures the typed-degree fast path (satellite
// fix: Degree no longer materializes, dedups and sorts the incident
// slice just to take its length).
func BenchmarkDegreeTyped(b *testing.B) {
	g, ids := buildTraversalGraph(5000)
	b.Run("view", func(b *testing.B) {
		v := g.View()
		b.ReportAllocs()
		b.ResetTimer()
		n := 0
		for i := 0; i < b.N; i++ {
			n += v.Degree(ids[i%len(ids)], Outgoing, "PEERS_WITH")
		}
		benchSink.Add(int64(n))
	})
	b.Run("locked", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		n := 0
		for i := 0; i < b.N; i++ {
			n += g.Degree(ids[i%len(ids)], Outgoing, "PEERS_WITH")
		}
		benchSink.Add(int64(n))
	})
}

// BenchmarkViewPin measures the steady-state cost of pinning a view
// (two atomic loads plus one small allocation) — the once-per-query
// price of going lock-free.
func BenchmarkViewPin(b *testing.B) {
	g, _ := buildTraversalGraph(1000)
	g.View() // publish once; the loop measures the fast path
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink.Add(int64(g.View().Version()))
	}
}

// BenchmarkConcurrentTraversal measures read-only traversal throughput
// as goroutines grow: each op is a fixed two-hop typed expansion, b.N
// ops are split across k workers, so ns/op is wall-clock per op and
// scaling appears as ns/op dropping with k (bounded by the core
// count). The locked variant serializes on the global
// RWMutex and allocates per hop; the view variant shares one immutable
// epoch.
func BenchmarkConcurrentTraversal(b *testing.B) {
	g, ids := buildTraversalGraph(5000)
	types := []string{"PEERS_WITH"}
	v := g.View()
	twoHopView := func(start int64) int {
		n := 0
		v.IncidentDo(start, Outgoing, types, func(r *Relationship) bool {
			v.IncidentDo(r.EndID, Outgoing, types, func(*Relationship) bool {
				n++
				return true
			})
			return true
		})
		return n
	}
	twoHopLocked := func(start int64) int {
		n := 0
		for _, r := range g.Incident(start, Outgoing, "PEERS_WITH") {
			n += len(g.Incident(r.EndID, Outgoing, "PEERS_WITH"))
		}
		return n
	}
	for _, impl := range []struct {
		name   string
		twoHop func(int64) int
	}{{"view", twoHopView}, {"locked", twoHopLocked}} {
		for _, k := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", impl.name, k), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				chunk := b.N / k
				for w := 0; w < k; w++ {
					n := chunk
					if w == k-1 {
						n = b.N - chunk*(k-1)
					}
					wg.Add(1)
					go func(w, n int) {
						defer wg.Done()
						local := 0
						for i := 0; i < n; i++ {
							local += impl.twoHop(ids[(i*31+w*7919)%len(ids)])
						}
						benchSink.Add(int64(local))
					}(w, n)
				}
				wg.Wait()
			})
		}
	}
}
