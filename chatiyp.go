// Package chatiyp is the public API of the ChatIYP reproduction: a
// retrieval-augmented natural-language interface to the Internet Yellow
// Pages knowledge graph (Andritsoudis et al., IMC 2025), built entirely
// on the Go standard library.
//
// The package wires together the substrates in internal/ — a property
// graph store, a Cypher engine, a synthetic IYP dataset, a deterministic
// simulated LLM, dense retrieval, and the RAG pipeline — behind a small
// facade:
//
//	sys, err := chatiyp.New(chatiyp.Options{})
//	if err != nil { ... }
//	ans, err := sys.Ask(ctx, "What is the percentage of Japan's population in AS2497?")
//	fmt.Println(ans.Text)   // the natural-language answer
//	fmt.Println(ans.Cypher) // the executed Cypher, for transparency
//
// Evaluation against the CypherEval-style benchmark (the paper's
// Figures 2a/2b and Findings 1/2) is exposed through Evaluate.
package chatiyp

import (
	"context"
	"net/http"

	"chatiyp/internal/core"
	"chatiyp/internal/cypher"
	"chatiyp/internal/cyphereval"
	"chatiyp/internal/eval"
	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
	"chatiyp/internal/llm"
	"chatiyp/internal/resilience"
	"chatiyp/internal/retrieval"
	"chatiyp/internal/server"
)

// Re-exported types: the facade's methods traffic in these.
type (
	// Answer is a pipeline response (text, executed Cypher, context,
	// trace).
	Answer = core.Answer
	// Result is a raw Cypher result.
	Result = cypher.Result
	// Graph is the property-graph store.
	Graph = graph.Graph
	// World is the synthetic IYP ground truth.
	World = iyp.World
	// DatasetConfig sizes the synthetic IYP dataset.
	DatasetConfig = iyp.Config
	// Benchmark is a CypherEval-style question set.
	Benchmark = cyphereval.Benchmark
	// EvalReport is a full evaluation run.
	EvalReport = eval.Report
	// PlanCacheStats snapshots the prepared-query plan cache (hits,
	// misses, evictions, size).
	PlanCacheStats = cypher.PlanCacheStats
	// BatchAnswer is one AskBatch result (question, answer, error).
	BatchAnswer = core.BatchAnswer
	// Stream is a pull iterator over one query's result rows (see
	// QueryStream).
	Stream = cypher.Stream
)

// ErrCanceled matches any query execution aborted by context
// cancellation or deadline expiry (re-exported from the Cypher engine
// so callers need not import internal packages).
var ErrCanceled = cypher.ErrCanceled

// Options configures New.
type Options struct {
	// Dataset sizes the synthetic IYP graph; the zero value means
	// iyp.DefaultConfig() (600 ASes, ~5k nodes).
	Dataset DatasetConfig
	// ErrorScale scales the simulated backbone's translation error
	// rate: 1.0 (the default when negative is not given — zero means
	// 1.0 here for the realistic GPT-3.5-class behaviour) and 0 gives
	// perfect translation within rule coverage. Set Perfect to force 0.
	ErrorScale float64
	// Perfect disables translation noise entirely (ErrorScale 0).
	Perfect bool
	// Seed shifts the simulated model's deterministic sampling.
	Seed int64
	// DisableVectorFallback and DisableReranker ablate retrieval
	// stages.
	DisableVectorFallback bool
	DisableReranker       bool
	// PlanCacheSize caps the prepared-query plan cache: 0 means the
	// default capacity, negative disables caching entirely.
	PlanCacheSize int
	// ANNRetrieval serves vector-fallback retrieval from the
	// approximate HNSW index instead of the exact scan (sub-linear in
	// corpus size; see docs/RETRIEVAL.md).
	ANNRetrieval bool
	// SemCacheThreshold enables the semantic answer cache when > 0:
	// questions at least this cosine-similar to a previously answered
	// one (at the current graph version) are served from the cache.
	SemCacheThreshold float64
	// SemCacheSize bounds the semantic cache's LRU entry count: 0 means
	// the default capacity, negative disables the cache.
	SemCacheSize int
	// Resilience wraps the model in the LLM-backend resilience layer
	// (per-task timeouts, retries, circuit breakers, bulkhead) and
	// enables graceful degradation: when the backend stays down, Ask
	// answers from retrieved facts instead of failing. It runs with the
	// resilience package defaults.
	Resilience bool
	// LLMFaults injects deterministic faults into the model backend for
	// chaos testing, as a spec string parsed by llm.ParseFaultSpec —
	// e.g. "down", "error=0.3,hang=0.1", "text2cypher:failfirst=5".
	LLMFaults string
}

// System is a ready-to-use ChatIYP instance: dataset, pipeline and
// model. Safe for concurrent use.
type System struct {
	graph    *graph.Graph
	world    *iyp.World
	pipeline *core.Pipeline
}

// New builds a complete system: it generates the synthetic IYP dataset,
// derives the entity lexicon, constructs the simulated LLM backbone and
// assembles the RAG pipeline.
func New(opts Options) (*System, error) {
	cfg := opts.Dataset
	if cfg.NumASes == 0 {
		cfg = iyp.DefaultConfig()
	}
	g, w, err := iyp.Build(cfg)
	if err != nil {
		return nil, err
	}
	return FromGraph(g, w, opts)
}

// FromGraph assembles a system around an existing graph (e.g. one
// restored from a snapshot). world may be nil; it is only needed by
// benchmark generation.
func FromGraph(g *graph.Graph, world *iyp.World, opts Options) (*System, error) {
	return fromGraph(g, world, nil, opts)
}

// FromGraphTier is FromGraph for a graph whose retrieval tier the
// caller already holds — read from a data directory by
// persist.Store.Retrieval, or made by retrieval.Build — so that the
// pipeline adopts it instead of building its own.
func FromGraphTier(g *graph.Graph, tier *retrieval.Tier, opts Options) (*System, error) {
	return fromGraph(g, nil, tier, opts)
}

func fromGraph(g *graph.Graph, world *iyp.World, tier *retrieval.Tier, opts Options) (*System, error) {
	lexicon := core.BuildLexicon(g)
	simCfg := llm.DefaultSimConfig(lexicon)
	if opts.Seed != 0 {
		simCfg.Seed = opts.Seed
	}
	switch {
	case opts.Perfect:
		simCfg.ErrorScale = 0
	case opts.ErrorScale > 0:
		simCfg.ErrorScale = opts.ErrorScale
	}
	var model llm.Model = llm.NewSim(simCfg)
	if opts.LLMFaults != "" {
		schedules, err := llm.ParseFaultSpec(opts.LLMFaults)
		if err != nil {
			return nil, err
		}
		model = &llm.FaultyModel{Inner: model, Seed: opts.Seed, Schedules: schedules}
	}
	coreCfg := core.Config{
		Graph:                 g,
		Model:                 model,
		Lexicon:               lexicon,
		Retrieval:             tier,
		DisableVectorFallback: opts.DisableVectorFallback,
		DisableReranker:       opts.DisableReranker,
		PlanCacheSize:         opts.PlanCacheSize,
		ANNRetrieval:          opts.ANNRetrieval,
		SemCacheThreshold:     opts.SemCacheThreshold,
		SemCacheSize:          opts.SemCacheSize,
	}
	if opts.Resilience {
		coreCfg.Resilience = &resilience.Config{}
		coreCfg.Degrade = true
	}
	pipe, err := core.New(coreCfg)
	if err != nil {
		return nil, err
	}
	return &System{graph: g, world: world, pipeline: pipe}, nil
}

// Ask answers a natural-language question through the full RAG
// pipeline. Cancelling ctx (or letting its deadline expire) aborts the
// question end to end, including any in-flight Cypher scan.
func (s *System) Ask(ctx context.Context, question string) (*Answer, error) {
	return s.pipeline.Ask(ctx, question)
}

// AskBatch answers independent questions concurrently across a bounded
// worker pool (workers <= 0 means GOMAXPROCS), returning one result
// per question in input order. See core.Pipeline.AskBatch.
func (s *System) AskBatch(ctx context.Context, questions []string, workers int) []BatchAnswer {
	return s.pipeline.AskBatch(ctx, questions, workers)
}

// QueryContext executes raw Cypher against the knowledge graph under a
// cancellation context: when ctx ends, execution aborts early with an
// error matching ErrCanceled. Queries run through the prepared-query
// plan cache: repeated shapes parse once.
func (s *System) QueryContext(ctx context.Context, query string, params map[string]any) (*Result, error) {
	return s.pipeline.QueryContext(ctx, query, params)
}

// QueryStream executes raw Cypher and returns a pull iterator instead
// of a materialized result: rows come off the streaming operator
// pipeline as the scan produces them, so callers can process (or
// forward) the first row before the last one exists. Callers must
// Close the stream; canceling ctx aborts the in-flight pull with an
// error matching ErrCanceled.
func (s *System) QueryStream(ctx context.Context, query string, params map[string]any) (*Stream, error) {
	return s.pipeline.QueryStreamContext(ctx, query, params, 0)
}

// Explain returns the access plan a query would use — which node
// anchors each MATCH and through which path (bound variable, property
// index, label scan, full scan) — without executing it. It plans with
// the pipeline's execution options, so the plan it prints is the one
// QueryContext would run.
func (s *System) Explain(query string) (string, error) {
	return cypher.Explain(s.graph, query, s.pipeline.ExecOptions())
}

// PlanCacheStats reports the plan cache's hit/miss/eviction counters.
func (s *System) PlanCacheStats() PlanCacheStats {
	return s.pipeline.PlanCacheStats()
}

// Graph returns the underlying knowledge graph.
func (s *System) Graph() *Graph { return s.graph }

// World returns the synthetic ground truth (nil when the system was
// built from a bare graph).
func (s *System) World() *World { return s.world }

// Pipeline exposes the underlying RAG pipeline for advanced use
// (validation-model answers, tracing).
func (s *System) Pipeline() *core.Pipeline { return s.pipeline }

// SaveGraph snapshots the knowledge graph to a file in the columnar
// IYPCOL1 format.
func (s *System) SaveGraph(path string) error { return s.graph.SaveFile(path) }

// LoadGraph restores a knowledge graph from an IYPCOL1 snapshot.
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// SchemaText returns the IYP schema card shown to the language model.
func SchemaText() string { return iyp.SchemaText() }

// HTTPHandler returns the ChatIYP web application (JSON API + embedded
// UI) for this system.
func (s *System) HTTPHandler() (http.Handler, error) {
	srv, err := server.New(server.Config{Pipeline: s.pipeline})
	if err != nil {
		return nil, err
	}
	return srv.Handler(), nil
}

// GenerateBenchmark instantiates the CypherEval-style benchmark against
// this system's world. perTemplate 0 means the paper-scale 10 instances
// per template (360 questions).
func (s *System) GenerateBenchmark(perTemplate int) (*Benchmark, error) {
	genCfg := cyphereval.DefaultGenConfig()
	if perTemplate > 0 {
		genCfg.PerTemplate = perTemplate
	}
	return cyphereval.Generate(s.graph, s.world, genCfg)
}

// Evaluate runs the full paper evaluation — pipeline over benchmark,
// all four metrics, execution-accuracy labels — and returns the report
// the figure builders consume.
func (s *System) Evaluate(ctx context.Context, bench *Benchmark) (*EvalReport, error) {
	judgeCfg := llm.DefaultSimConfig(s.pipeline.Lexicon())
	judgeCfg.Seed = 99
	judgeCfg.JudgeNoise = 0.04
	runner := &eval.Runner{
		Pipeline: s.pipeline,
		Judge:    llm.NewSim(judgeCfg),
		Bench:    bench,
	}
	return runner.Run(ctx)
}
