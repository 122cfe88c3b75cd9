package chatiyp

// Concurrency benchmarks: throughput of the serving path under
// parallel load, with serial baselines so the speedup of the worker
// pool is visible in the numbers.
//
//	go test -run NONE -bench 'BenchmarkConcurrent' -benchmem

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"chatiyp/internal/iyp"
)

var (
	concOnce sync.Once
	concSys  *System
	concErr  error
)

func concSetup(b *testing.B) *System {
	b.Helper()
	concOnce.Do(func() {
		concSys, concErr = New(Options{Dataset: iyp.SmallConfig(), Perfect: true})
	})
	if concErr != nil {
		b.Fatal(concErr)
	}
	return concSys
}

func concQuestions(sys *System, n int) []string {
	w := sys.World()
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("What is the name of AS%d?", w.ASes[i%len(w.ASes)].ASN)
	}
	return out
}

func BenchmarkConcurrentAsk(b *testing.B) {
	sys := concSetup(b)
	questions := concQuestions(sys, 64)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Ask(context.Background(), questions[i%len(questions)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := sys.Ask(context.Background(), questions[i%len(questions)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
	b.Run("batch", func(b *testing.B) {
		batch := questions[:16]
		for i := 0; i < b.N; i++ {
			for _, ba := range sys.AskBatch(context.Background(), batch, 0) {
				if ba.Err != nil {
					b.Fatal(ba.Err)
				}
			}
		}
	})
}

func BenchmarkConcurrentCypher(b *testing.B) {
	sys := concSetup(b)
	w := sys.World()
	queries := make([]string, 32)
	for i := range queries {
		queries[i] = fmt.Sprintf(
			"MATCH (a:AS {asn: %d})-[:COUNTRY]->(c:Country) RETURN a.name, c.country_code",
			w.ASes[i%len(w.ASes)].ASN)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.QueryContext(context.Background(), queries[i%len(queries)], nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := sys.QueryContext(context.Background(), queries[i%len(queries)], nil); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
}
