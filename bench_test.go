package chatiyp

// This file is the paper's benchmark harness: one testing.B benchmark
// per figure/finding in the evaluation section, plus the ablations
// DESIGN.md calls out. Each figure benchmark regenerates the rows the
// paper reports (printed once per `go test -bench` run) and times a full
// evaluation pass; custom b.ReportMetric columns carry the headline
// numbers so regressions in the *shape* of the results show up in bench
// output diffs.
//
//	go test -bench 'BenchmarkFigure2a' -benchmem
//	go test -bench 'BenchmarkAblation' -benchmem

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"chatiyp/internal/core"
	"chatiyp/internal/cypher"
	"chatiyp/internal/cyphereval"
	"chatiyp/internal/eval"
	"chatiyp/internal/iyp"
	"chatiyp/internal/llm"
)

// benchExperiment caches the bench-scale experiment and its report: the
// dataset and benchmark are identical across benchmark functions, so
// figure benches share one evaluated report and time fresh evaluation
// passes on top.
var (
	benchOnce sync.Once
	benchExp  *eval.Experiment
	benchRep  *eval.Report
	benchErr  error
)

func benchSetup(b *testing.B) (*eval.Experiment, *eval.Report) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := eval.DefaultExperimentConfig()
		cfg.Dataset = iyp.SmallConfig()
		gen := cyphereval.DefaultGenConfig()
		gen.PerTemplate = 4
		cfg.Gen = gen
		benchExp, benchErr = eval.NewExperiment(cfg)
		if benchErr != nil {
			return
		}
		benchRep, benchErr = benchExp.Runner.Run(context.Background())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchExp, benchRep
}

var printFigures sync.Once

// BenchmarkFigure2a regenerates the metric-distribution comparison
// (paper Figure 2a) and times one full evaluation + figure build.
func BenchmarkFigure2a(b *testing.B) {
	exp, rep := benchSetup(b)
	printFigures.Do(func() {
		fmt.Println(eval.BuildFigure2a(rep).Render())
	})
	b.ResetTimer()
	b.ReportAllocs()
	var fig eval.Figure2a
	for i := 0; i < b.N; i++ {
		r, err := exp.Runner.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		fig = eval.BuildFigure2a(r)
	}
	b.ReportMetric(fig.Metrics["geval"].Bimodality, "geval-bimodality")
	b.ReportMetric(fig.Metrics["bertscore"].Summary.Std, "bertscore-std")
	b.ReportMetric(fig.Metrics["bleu"].Summary.Mean, "bleu-mean")
}

// BenchmarkFigure2b regenerates the G-Eval-by-difficulty breakdown
// (paper Figure 2b).
func BenchmarkFigure2b(b *testing.B) {
	exp, rep := benchSetup(b)
	printFigures.Do(func() {})
	fmt.Println(eval.BuildFigure2b(rep).Render())
	b.ResetTimer()
	b.ReportAllocs()
	var fig eval.Figure2b
	for i := 0; i < b.N; i++ {
		r, err := exp.Runner.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		fig = eval.BuildFigure2b(r)
	}
	b.ReportMetric(fig.ByDifficulty[cyphereval.Easy].Summary.Mean, "geval-easy")
	b.ReportMetric(fig.ByDifficulty[cyphereval.Medium].Summary.Mean, "geval-medium")
	b.ReportMetric(fig.ByDifficulty[cyphereval.Hard].Summary.Mean, "geval-hard")
	b.ReportMetric(fig.ByDifficulty[cyphereval.Easy].FracAbove75, "easy-frac>=.75")
}

// BenchmarkFinding1Correlation regenerates the metric-vs-correctness
// alignment table (paper Finding 1).
func BenchmarkFinding1Correlation(b *testing.B) {
	_, rep := benchSetup(b)
	fmt.Println(eval.BuildCorrelationReport(rep).Render())
	b.ResetTimer()
	b.ReportAllocs()
	var corr eval.CorrelationReport
	for i := 0; i < b.N; i++ {
		corr = eval.BuildCorrelationReport(rep)
	}
	b.ReportMetric(corr.PointBiserial["geval"], "geval-r")
	b.ReportMetric(corr.PointBiserial["bertscore"], "bertscore-r")
	b.ReportMetric(corr.PointBiserial["bleu"], "bleu-r")
}

// BenchmarkFinding2 regenerates the difficulty-vs-domain comparison
// (paper Finding 2).
func BenchmarkFinding2(b *testing.B) {
	_, rep := benchSetup(b)
	fmt.Println(eval.BuildFinding2(rep).Render())
	b.ResetTimer()
	b.ReportAllocs()
	var f2 eval.Finding2Report
	for i := 0; i < b.N; i++ {
		f2 = eval.BuildFinding2(rep)
	}
	b.ReportMetric(f2.DifficultyGap, "difficulty-gap")
	b.ReportMetric(f2.DomainGap, "domain-gap")
}

// BenchmarkAblationRetrievers compares the three retriever
// compositions: the paper's robustness argument for combining symbolic
// and semantic retrieval.
func BenchmarkAblationRetrievers(b *testing.B) {
	variants := []struct {
		name                      string
		disableVector, disableRnk bool
	}{
		{"full", false, false},
		{"no-reranker", false, true},
		{"no-vector-fallback", true, false},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := eval.DefaultExperimentConfig()
			cfg.Dataset = iyp.SmallConfig()
			gen := cyphereval.DefaultGenConfig()
			gen.PerTemplate = 3
			cfg.Gen = gen
			cfg.DisableVectorFallback = v.disableVector
			cfg.DisableReranker = v.disableRnk
			exp, err := eval.NewExperiment(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			var mean float64
			for i := 0; i < b.N; i++ {
				rep, err := exp.Runner.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				var sum float64
				for _, rec := range rep.Records {
					sum += rec.GEval
				}
				mean = sum / float64(len(rep.Records))
			}
			b.ReportMetric(mean, "geval-mean")
		})
	}
}

// BenchmarkBaselineClosedBook contrasts the full RAG pipeline with
// generation-only answering (no retrieval) — the justification for the
// retrieval-augmented design.
func BenchmarkBaselineClosedBook(b *testing.B) {
	exp, rep := benchSetup(b)
	b.ResetTimer()
	b.ReportAllocs()
	var cmp eval.BaselineComparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = exp.Runner.RunBaseline(context.Background(), rep)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cmp.PipelineGEval, "rag-geval")
	b.ReportMetric(cmp.ClosedBookGEval, "closedbook-geval")
}

// BenchmarkAblationIndexes measures the anchored-lookup speedup from
// property indexes (DESIGN.md's index ablation): the same Cypher query
// executed with the property index versus forced label scans.
func BenchmarkAblationIndexes(b *testing.B) {
	sys, err := New(Options{Perfect: true})
	if err != nil {
		b.Fatal(err)
	}
	asn := sys.World().ASes[len(sys.World().ASes)/2].ASN
	src := fmt.Sprintf("MATCH (:AS {asn: %d})-[:NAME]->(n:Name) RETURN n.name", asn)
	parsed, err := cypher.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts cypher.Options
	}{
		{"indexed", cypher.Options{}},
		{"label-scan", cypher.Options{DisableIndexes: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := cypher.ExecuteQuery(sys.Graph(), parsed, nil, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != 1 {
					b.Fatal("unexpected result")
				}
			}
		})
	}
}

// BenchmarkPlanCache contrasts the two execution paths of a repeated
// template-shaped workload — the RAG pipeline's hot path: cold-parse
// re-parses the query text every time (the pre-cache behaviour), while
// cached goes through the prepared-query plan cache and re-executes a
// query parsed and planned once, with only the parameter changing.
func BenchmarkPlanCache(b *testing.B) {
	sys, err := New(Options{Perfect: true})
	if err != nil {
		b.Fatal(err)
	}
	g := sys.Graph()
	ases := sys.World().ASes
	const src = "MATCH (a:AS {asn: $n})-[:ORIGINATE]->(p:Prefix) RETURN count(p)"
	params := func(i int) map[string]any {
		return map[string]any{"n": ases[i%len(ases)].ASN}
	}
	b.Run("cold-parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cypher.ExecuteWith(g, src, params(i), cypher.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		cache := cypher.NewPlanCache(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pq, err := cache.Prepare(src)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pq.Execute(g, params(i), cypher.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		s := cache.Stats()
		b.ReportMetric(float64(s.Hits)/float64(s.Hits+s.Misses), "hit-rate")
	})
}

// BenchmarkWhereEqualityIndex measures the planner's WHERE-driven scan
// selection: MATCH (a:AS) WHERE a.asn = $n served from the property
// index versus the forced label scan over every AS node.
func BenchmarkWhereEqualityIndex(b *testing.B) {
	sys, err := New(Options{Perfect: true})
	if err != nil {
		b.Fatal(err)
	}
	g := sys.Graph()
	asn := sys.World().ASes[len(sys.World().ASes)/2].ASN
	pq, err := cypher.Prepare("MATCH (a:AS) WHERE a.asn = $n RETURN a.asn")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts cypher.Options
	}{
		{"indexed", cypher.Options{}},
		{"label-scan", cypher.Options{DisableIndexes: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := pq.Execute(g, map[string]any{"n": asn}, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != 1 {
					b.Fatal("unexpected result")
				}
			}
		})
	}
}

// BenchmarkDeploymentCost models a hosted-API deployment: the same
// pipeline with a GPT-3.5-style latency/cost profile attached, reporting
// simulated per-question latency and cost rather than local CPU time.
func BenchmarkDeploymentCost(b *testing.B) {
	g, w, err := iyp.Build(iyp.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	lexicon := core.BuildLexicon(g)
	metered := &llm.MeteredModel{
		Inner:   llm.NewSim(llm.DefaultSimConfig(lexicon)),
		Profile: llm.GPT35TurboProfile(),
	}
	pipe, err := core.New(core.Config{Graph: g, Model: metered})
	if err != nil {
		b.Fatal(err)
	}
	q := fmt.Sprintf("How many prefixes does AS%d originate?", w.ASes[0].ASN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Ask(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
	u := metered.Usage()
	if u.Calls > 0 {
		b.ReportMetric(float64(u.SimulatedDur.Milliseconds())/float64(b.N), "sim-ms/question")
		b.ReportMetric(u.Cost/float64(b.N)*1000, "sim-cost-m$/question")
		b.ReportMetric(float64(u.TokensIn+u.TokensOut)/float64(b.N), "tokens/question")
	}
}

// BenchmarkScaleDataset measures end-to-end ask latency across dataset
// sizes.
func BenchmarkScaleDataset(b *testing.B) {
	for _, size := range []int{100, 300, 600, 1200} {
		b.Run(fmt.Sprintf("ases-%d", size), func(b *testing.B) {
			cfg := iyp.DefaultConfig()
			cfg.NumASes = size
			cfg.PrefixBudget = size * 4
			cfg.NumDomains = size / 2
			sys, err := New(Options{Dataset: cfg, Perfect: true})
			if err != nil {
				b.Fatal(err)
			}
			q := fmt.Sprintf("How many prefixes does AS%d originate?", sys.World().ASes[0].ASN)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Ask(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAskByDifficulty times single questions of each difficulty
// through the full pipeline.
func BenchmarkAskByDifficulty(b *testing.B) {
	exp, _ := benchSetup(b)
	byDiff := exp.Bench.ByDifficulty()
	for _, d := range []cyphereval.Difficulty{cyphereval.Easy, cyphereval.Medium, cyphereval.Hard} {
		qs := byDiff[d]
		if len(qs) == 0 {
			continue
		}
		b.Run(string(d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exp.Pipeline.Ask(context.Background(), qs[i%len(qs)].Text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamingLimitedScan is the streaming-executor headline: a
// label scan capped by LIMIT, where the pushed-down limit stops the
// scan after k anchor candidates instead of materializing and
// projecting every AS in the dataset.
func BenchmarkStreamingLimitedScan(b *testing.B) {
	sys, err := New(Options{Perfect: true})
	if err != nil {
		b.Fatal(err)
	}
	g := sys.Graph()
	pq, err := cypher.Prepare("MATCH (a:AS) RETURN a.asn LIMIT 5")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts cypher.Options
	}{
		{"streaming", cypher.Options{}},
		{"materialized", cypher.Options{DisableStreaming: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := pq.Execute(g, nil, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != 5 {
					b.Fatal("unexpected result")
				}
			}
		})
	}
}

// BenchmarkStreamingTopK compares the bounded top-k heap against
// full-sort-then-slice for ORDER BY ... LIMIT over the prefix table
// (the dataset's largest label).
func BenchmarkStreamingTopK(b *testing.B) {
	sys, err := New(Options{Perfect: true})
	if err != nil {
		b.Fatal(err)
	}
	g := sys.Graph()
	pq, err := cypher.Prepare("MATCH (p:Prefix) RETURN p.prefix ORDER BY p.prefix DESC LIMIT 10")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts cypher.Options
	}{
		{"streaming", cypher.Options{}},
		{"materialized", cypher.Options{DisableStreaming: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := pq.Execute(g, nil, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != 10 {
					b.Fatal("unexpected result")
				}
			}
		})
	}
}
