// Package core implements the ChatIYP pipeline — the paper's
// contribution: a domain-specific Retrieval-Augmented Generation system
// that answers natural-language questions over the IYP graph.
//
// The pipeline follows Figure 1 of the paper:
//
//  1. User Query — a natural-language question.
//  2. Retrieval — three complementary retrievers:
//     TextToCypherRetriever (LLM → Cypher → graph execution),
//     VectorContextRetriever (dense kNN over node descriptions, used
//     when structured retrieval fails or returns sparse results), and
//     LLMReranker (shallow LLM scorer selecting the best context).
//  3. Generation — the LLM produces the natural-language response; the
//     executed Cypher query is returned alongside for transparency.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"chatiyp/internal/cypher"
	"chatiyp/internal/embed"
	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
	"chatiyp/internal/llm"
	"chatiyp/internal/metrics"
	"chatiyp/internal/persist"
	"chatiyp/internal/resilience"
	"chatiyp/internal/retrieval"
	"chatiyp/internal/vector"
)

// Config assembles a Pipeline.
type Config struct {
	// Graph is the IYP knowledge graph. Required.
	Graph *graph.Graph
	// Model is the LLM backbone. Required.
	Model llm.Model
	// Lexicon is the entity vocabulary of Graph when the caller has
	// already derived it (the simulated model needs one before New can
	// run); nil means BuildLexicon(Graph).
	Lexicon *llm.Lexicon
	// Retrieval is the retrieval tier of Graph when the caller already
	// holds it (persist.Store.Retrieval reads it from a data directory);
	// nil means retrieval.Build(Graph.View()). The index borrows its
	// docs and slab without writing them, so a tier serves any number
	// of pipelines.
	Retrieval *retrieval.Tier
	// Schema is the schema card included in translation prompts;
	// empty means iyp.SchemaText().
	Schema string
	// VectorTopK is how many node descriptions the vector retriever
	// fetches (default 8).
	VectorTopK int
	// RerankKeep is how many context records survive the reranker
	// (default 4).
	RerankKeep int
	// DisableVectorFallback turns off the semantic fallback; the
	// ablation benchmarks use it.
	DisableVectorFallback bool
	// DisableReranker passes vector candidates through unscored; the
	// ablation benchmarks use it.
	DisableReranker bool
	// MaxContextRows caps how many result rows are rendered into the
	// generation context (default 12).
	MaxContextRows int
	// ANNRetrieval serves the vector-fallback retriever from the
	// approximate HNSW index instead of the exact brute-force scan.
	// Retrieval cost becomes sub-linear in corpus size (see
	// docs/RETRIEVAL.md); the exact index remains the recall reference.
	ANNRetrieval bool
	// SemCacheThreshold enables the semantic answer cache in front of
	// Ask when > 0: a question whose embedding is at least this
	// cosine-similar to a previously answered one (and whose cached
	// entry was computed against the current graph version) is answered
	// from the cache, skipping retrieval and generation entirely.
	// 0 disables the cache. Sensible values are close to 1 (e.g. 0.97):
	// lower thresholds trade answer fidelity for hit rate.
	SemCacheThreshold float64
	// SemCacheSize bounds the semantic cache's LRU entry count. Zero
	// means DefaultSemCacheCapacity; negative disables the cache even
	// when a threshold is set.
	SemCacheSize int
	// ExecOptions tunes Cypher execution.
	ExecOptions cypher.Options
	// PlanCacheSize caps the prepared-query plan cache. Zero means
	// cypher.DefaultPlanCacheCapacity; negative disables caching (every
	// query re-parses, as before the cache existed). The pipeline's
	// workload is template-shaped — the simulated translator emits the
	// same few dozen query skeletons over and over — so the cache turns
	// the per-question parse into a lookup.
	PlanCacheSize int
	// Metrics receives runtime counters (plan-cache hits/misses, asks,
	// Cypher executions). Nil means metrics.Default.
	Metrics *metrics.Registry
	// Resilience, when non-nil, wraps Model in a ResilientModel
	// (per-attempt timeouts, retries, circuit breaker, bulkhead; see
	// internal/resilience). EnableResilience does the same after
	// construction.
	Resilience *resilience.Config
	// Degrade turns on graceful degradation: when generation fails for
	// a reason other than the caller's own cancellation, Ask serves a
	// template answer rendered from the retrieved records (or a stale
	// cached answer, or an apology) with Answer.Degraded set, instead
	// of surfacing the error. Off by default: evaluation harnesses
	// want model failures loud.
	Degrade bool
}

func (c Config) withDefaults() Config {
	if c.Schema == "" {
		c.Schema = iyp.SchemaText()
	}
	if c.VectorTopK == 0 {
		c.VectorTopK = 8
	}
	if c.RerankKeep == 0 {
		c.RerankKeep = 4
	}
	if c.MaxContextRows == 0 {
		c.MaxContextRows = 12
	}
	return c
}

// ErrNoGraph and ErrNoModel reject incomplete configurations.
var (
	ErrNoGraph = errors.New("core: Config.Graph is required")
	ErrNoModel = errors.New("core: Config.Model is required")
)

// Pipeline is a ready-to-serve ChatIYP instance. Safe for concurrent
// use.
type Pipeline struct {
	cfg       Config
	embedder  *embed.Embedder
	index     vector.Searcher // exact Index, or HNSW when ANNRetrieval
	lexicon   *llm.Lexicon
	plans     *cypher.PlanCache // nil when caching is disabled
	semcache  *semCache         // nil when the semantic cache is disabled
	metrics   *metrics.Registry
	baseModel llm.Model                  // the unwrapped Config.Model
	resilient *resilience.ResilientModel // nil until resilience is enabled
}

// New builds a Pipeline: it derives the entity lexicon from the graph
// and builds the retrieval tier — renders the node descriptions, fits
// the embedder on them and embeds them (see retrieval.Build) — unless
// the caller passes them, and fills the vector index. It reads the graph
// through Views only, so a cold columnar load stays cold.
func New(cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	if cfg.Graph == nil {
		return nil, ErrNoGraph
	}
	if cfg.Model == nil {
		return nil, ErrNoModel
	}
	p := &Pipeline{cfg: cfg, metrics: cfg.Metrics, baseModel: cfg.Model}
	if p.metrics == nil {
		p.metrics = metrics.Default
	}
	if cfg.Resilience != nil {
		p.resilient = resilience.Wrap(p.baseModel, *cfg.Resilience, p.metrics)
		p.cfg.Model = p.resilient
	}
	if cfg.PlanCacheSize >= 0 {
		p.plans = cypher.NewPlanCache(cfg.PlanCacheSize)
	}
	p.lexicon = cfg.Lexicon
	if p.lexicon == nil {
		p.lexicon = BuildLexicon(cfg.Graph)
	}
	tier := cfg.Retrieval
	if tier == nil {
		tier = retrieval.Build(cfg.Graph.View())
	}
	p.embedder = tier.Embedder
	docs, slab := tier.Docs, tier.Slab
	dim := p.embedder.Dim()
	if cfg.ANNRetrieval {
		// The HNSW graph is built by insertion, one document at a time.
		p.index = vector.NewHNSW(vector.HNSWConfig{Dim: dim})
		for i, d := range docs {
			d.Vec = slab[i*dim : (i+1)*dim : (i+1)*dim]
			if err := p.index.Add(d); err != nil {
				return nil, fmt.Errorf("core: indexing descriptions: %w", err)
			}
		}
	} else {
		ix, err := vector.NewIndexFromSlab(dim, docs, slab)
		if err != nil {
			return nil, fmt.Errorf("core: indexing descriptions: %w", err)
		}
		p.index = ix
	}
	if cfg.SemCacheThreshold > 0 && cfg.SemCacheSize >= 0 {
		p.semcache = newSemCache(cfg.SemCacheThreshold, cfg.SemCacheSize, dim)
	}
	return p, nil
}

// EnableSemCache switches the semantic answer cache on (or retunes it)
// after construction: questions whose embeddings clear threshold
// against a cached one are answered without retrieval or generation.
// size <= 0 means DefaultSemCacheCapacity; threshold <= 0 disables the
// cache. Like SetMaxParallelism, call it during setup — it is not
// synchronized against in-flight Asks.
func (p *Pipeline) EnableSemCache(threshold float64, size int) {
	if threshold <= 0 {
		p.semcache = nil
		return
	}
	p.cfg.SemCacheThreshold = threshold
	p.semcache = newSemCache(threshold, size, p.embedder.Dim())
}

// EnableResilience wraps the pipeline's model backbone in a
// ResilientModel (per-attempt timeouts, retries, circuit breaker,
// bulkhead) and sets the degradation policy. It always wraps the
// original construction-time model, so calling it again retunes rather
// than stacking wrappers. Like EnableSemCache, call it during setup —
// it is not synchronized against in-flight Asks.
func (p *Pipeline) EnableResilience(rcfg resilience.Config, degrade bool) {
	p.resilient = resilience.Wrap(p.baseModel, rcfg, p.metrics)
	p.cfg.Model = p.resilient
	p.cfg.Degrade = degrade
}

// BreakerStates snapshots the circuit-breaker state per model task
// ("closed", "half_open", "open"). Nil when resilience is not enabled.
func (p *Pipeline) BreakerStates() map[string]string {
	if p.resilient == nil {
		return nil
	}
	return p.resilient.BreakerStates()
}

// Lexicon exposes the derived entity lexicon (the simulated model needs
// it at construction time).
func (p *Pipeline) Lexicon() *llm.Lexicon { return p.lexicon }

// Graph returns the underlying knowledge graph.
func (p *Pipeline) Graph() *graph.Graph { return p.cfg.Graph }

// BuildLexicon derives the text-to-Cypher entity vocabulary from the
// graph, the way ChatIYP's prompt chain carries schema examples. It
// reads one pinned snapshot, so a graph being mutated while a pipeline
// is constructed still yields a self-consistent lexicon.
func BuildLexicon(src *graph.Graph) *llm.Lexicon {
	g := src.View()
	lx := &llm.Lexicon{
		Countries:    map[string]string{},
		CountryCodes: map[string]bool{},
	}
	for _, id := range g.NodesByLabel(iyp.LabelCountry) {
		n := g.Node(id)
		code, _ := n.Prop("country_code").(string)
		name, _ := n.Prop("name").(string)
		if code != "" {
			lx.CountryCodes[code] = true
		}
		if name != "" && code != "" {
			lx.Countries[strings.ToLower(name)] = code
		}
	}
	for _, id := range g.NodesByLabel(iyp.LabelIXP) {
		if name, ok := g.Node(id).Prop("name").(string); ok {
			lx.IXPs = append(lx.IXPs, name)
		}
	}
	for _, id := range g.NodesByLabel(iyp.LabelOrganization) {
		if name, ok := g.Node(id).Prop("name").(string); ok {
			lx.Orgs = append(lx.Orgs, name)
		}
	}
	for _, id := range g.NodesByLabel(iyp.LabelTag) {
		if label, ok := g.Node(id).Prop("label").(string); ok {
			lx.Tags = append(lx.Tags, label)
		}
	}
	for _, id := range g.NodesByLabel(iyp.LabelRanking) {
		if name, ok := g.Node(id).Prop("name").(string); ok {
			lx.Rankings = append(lx.Rankings, name)
		}
	}
	sort.Strings(lx.IXPs)
	sort.Strings(lx.Orgs)
	sort.Strings(lx.Tags)
	sort.Strings(lx.Rankings)
	return lx
}

// ContextRecord is one retrieved context unit handed to generation.
type ContextRecord struct {
	// Source is "cypher" or "vector".
	Source string
	// Text is the rendered record.
	Text string
	// Score is the reranker score (0 when unscored).
	Score float64
}

// StageTrace records one pipeline stage for transparency.
type StageTrace struct {
	Stage    string
	Detail   string
	Err      string
	Duration time.Duration
}

// Answer is the pipeline output: the response text, the executed Cypher
// (for transparency, as the paper's UI shows), the raw rows, the final
// context, and a full stage trace.
type Answer struct {
	Question    string
	Text        string
	Cypher      string
	CypherError string
	Columns     []string
	Rows        [][]graph.Value
	Context     []ContextRecord
	Trace       []StageTrace
	TokensIn    int
	TokensOut   int
	Duration    time.Duration
	// UsedVectorFallback reports whether semantic retrieval contributed
	// context.
	UsedVectorFallback bool
	// CacheHit reports that the answer was served from the semantic
	// cache: no retrieval or generation ran for this request, and the
	// trace's semcache stage names the question the answer was
	// originally computed for.
	CacheHit bool
	// Degraded reports that the model backend failed and the answer
	// was assembled without it: a template rendering of the retrieved
	// records (facts verbatim), a stale cached answer, or an apology.
	// Degraded answers are never cached.
	Degraded bool
	// DegradedReason classifies why ("breaker_open", "bulkhead_full",
	// "timeout", "retries_exhausted", "model_error"). Empty when
	// Degraded is false.
	DegradedReason string
}

// Ask runs the full pipeline on one question. With the semantic cache
// enabled, a question similar enough to a previously answered one (and
// whose cached answer is stamped with the current graph version) is
// served from the cache without touching retrieval or the model.
func (p *Pipeline) Ask(ctx context.Context, question string) (*Answer, error) {
	started := time.Now()
	p.metrics.Counter("pipeline.ask").Inc()

	// The version stamp is read before any retrieval so that a write
	// racing this Ask invalidates the entry we are about to cache: a
	// stale stamp can only under-serve, never over-serve.
	var qvec embed.Vector
	var stale *staleAnswer
	version := p.cfg.Graph.Version()
	if p.semcache != nil {
		qvec = p.embedder.Embed(question)
		hit, orig, score, ok, staleCand := p.semcache.get(ctx, qvec, version)
		if ok {
			ans := cachedAnswer(question, hit, orig, score)
			ans.Duration = time.Since(started)
			return ans, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("core: semcache probe: %w", cancellationError(ctx, context.Cause(ctx)))
		}
		// Held for the degradation path: if the backend turns out to
		// be down, a stale near-duplicate beats an apology.
		stale = staleCand
	}
	ans := &Answer{Question: question}

	// --- Stage 1: TextToCypherRetriever ---
	t0 := time.Now()
	var records []ContextRecord
	query, res, terr := p.textToCypher(ctx, question, ans)
	switch {
	case terr != nil && (errors.Is(terr, cypher.ErrCanceled) || ctx.Err() != nil):
		// Cancellation is not a retrieval failure: falling back to
		// vector search (and then generation) would keep a dead request
		// burning workers. Surface the abort to the caller instead.
		return nil, fmt.Errorf("core: text2cypher: %w", cancellationError(ctx, terr))
	case terr != nil:
		ans.CypherError = terr.Error()
		ans.Trace = append(ans.Trace, StageTrace{Stage: "text2cypher", Err: terr.Error(), Duration: time.Since(t0)})
	default:
		ans.Cypher = query
		ans.Columns = res.Columns
		ans.Rows = res.Rows
		for _, rec := range FormatRows(res, p.cfg.MaxContextRows) {
			records = append(records, ContextRecord{Source: "cypher", Text: rec})
		}
		ans.Trace = append(ans.Trace, StageTrace{
			Stage:    "text2cypher",
			Detail:   fmt.Sprintf("%s → %d rows", query, len(res.Rows)),
			Duration: time.Since(t0),
		})
	}

	// --- Stage 2: VectorContextRetriever (fallback on failure or
	// sparse structured results) ---
	sparse := terr != nil || len(ans.Rows) == 0
	if sparse && !p.cfg.DisableVectorFallback {
		t1 := time.Now()
		hits, err := p.vectorRetrieve(ctx, question)
		switch {
		case err != nil && ctx.Err() != nil:
			// Same rule as stage 1: a canceled retrieval must abort the
			// request, not degrade into context-free generation.
			return nil, fmt.Errorf("core: vector retrieve: %w", cancellationError(ctx, err))
		case err != nil:
			ans.Trace = append(ans.Trace, StageTrace{Stage: "vector", Err: err.Error(), Duration: time.Since(t1)})
		default:
			for _, h := range hits {
				records = append(records, ContextRecord{Source: "vector", Text: h.Doc.Text, Score: h.Score})
			}
			ans.UsedVectorFallback = len(hits) > 0
			if ans.UsedVectorFallback {
				// Counted apart from degraded answers: the fallback is
				// the pipeline working as designed, not a failure mode.
				p.metrics.Counter("pipeline.vector_fallbacks").Inc()
			}
			ans.Trace = append(ans.Trace, StageTrace{
				Stage:    "vector",
				Detail:   fmt.Sprintf("%d candidates", len(hits)),
				Duration: time.Since(t1),
			})
		}
	}

	// --- Stage 3: LLMReranker ---
	if ans.UsedVectorFallback && !p.cfg.DisableReranker && len(records) > p.cfg.RerankKeep {
		t2 := time.Now()
		reranked, err := p.rerank(ctx, question, records, ans)
		switch {
		case err != nil && !p.canDegrade(ctx, err):
			return nil, cancellationError(ctx, err)
		case err != nil:
			// Degradation: keep the top candidates unscored (vector
			// order is already similarity-ranked) and press on —
			// generation may still succeed, or degrade in turn.
			records = records[:p.cfg.RerankKeep]
			ans.Trace = append(ans.Trace, StageTrace{
				Stage:    "rerank",
				Detail:   fmt.Sprintf("skipped, kept top %d unscored", len(records)),
				Err:      err.Error(),
				Duration: time.Since(t2),
			})
		default:
			records = reranked
			ans.Trace = append(ans.Trace, StageTrace{
				Stage:    "rerank",
				Detail:   fmt.Sprintf("kept %d", len(records)),
				Duration: time.Since(t2),
			})
		}
	}
	ans.Context = records

	// --- Stage 4: Generation ---
	t3 := time.Now()
	texts := make([]string, len(records))
	for i, r := range records {
		texts[i] = r.Text
	}
	resp, err := p.cfg.Model.Complete(ctx, llm.Request{
		Task:     llm.TaskAnswer,
		Question: question,
		Context:  texts,
	})
	if err != nil {
		if !p.canDegrade(ctx, err) {
			return nil, fmt.Errorf("core: generation: %w", cancellationError(ctx, err))
		}
		p.degrade(ans, records, stale, err, t3)
		ans.Duration = time.Since(started)
		// Degraded answers are never cached: they would outlive the
		// outage and keep serving template text after recovery.
		return ans, nil
	}
	ans.Text = resp.Text
	ans.TokensIn += resp.TokensIn
	ans.TokensOut += resp.TokensOut
	ans.Trace = append(ans.Trace, StageTrace{Stage: "generate", Detail: fmt.Sprintf("%d context records", len(records)), Duration: time.Since(t3)})
	ans.Duration = time.Since(started)
	if p.semcache != nil {
		p.semcache.put(question, qvec, ans, version)
	}
	return ans, nil
}

// canDegrade decides whether a model failure may be absorbed into a
// degraded answer: degradation must be enabled, and the failure must
// not be the caller's own cancellation — a dead request gets its abort
// surfaced, never a degraded 200.
func (p *Pipeline) canDegrade(ctx context.Context, err error) bool {
	return p.cfg.Degrade && ctx.Err() == nil && !errors.Is(err, cypher.ErrCanceled)
}

// degrade fills ans with the best available model-free answer, in
// preference order: a template rendering of the retrieved records
// (facts verbatim — the retrieval tier did its job, only prose
// synthesis is missing), a stale cached answer for a near-duplicate
// question, or an apology.
func (p *Pipeline) degrade(ans *Answer, records []ContextRecord, stale *staleAnswer, cause error, t time.Time) {
	var detail string
	switch {
	case len(records) > 0:
		ans.Text = degradedTemplate(ans.Question, records)
		detail = fmt.Sprintf("template answer from %d retrieved records", len(records))
	case stale != nil && p.semcache != nil:
		ans.Text = stale.ans.Text
		p.semcache.markStaleServed()
		detail = fmt.Sprintf("stale cached answer (similarity %.3f) for %q", stale.score, stale.question)
	default:
		ans.Text = degradedApology
		detail = "no retrieved context; apologized"
	}
	ans.Degraded = true
	ans.DegradedReason = degradeReason(cause)
	p.metrics.Counter("llm.degraded_answers").Inc()
	ans.Trace = append(ans.Trace, StageTrace{
		Stage:    "degrade",
		Detail:   detail,
		Err:      cause.Error(),
		Duration: time.Since(t),
	})
}

// degradedApology is served when nothing was retrieved and no cached
// answer is close enough.
const degradedApology = "The language model backend is currently unavailable and no matching records were retrieved, so this question cannot be answered right now. Please retry shortly."

// degradedTemplate renders retrieved records into a direct answer: the
// facts verbatim, clearly labeled as unsynthesized.
func degradedTemplate(question string, records []ContextRecord) string {
	var b strings.Builder
	b.WriteString("The language model backend is unavailable; answering directly from the retrieved records:\n")
	for _, r := range records {
		b.WriteString("- ")
		b.WriteString(r.Text)
		b.WriteString("\n")
	}
	return strings.TrimRight(b.String(), "\n")
}

// degradeReason classifies the failure that forced degradation into the
// stable strings the API exposes.
func degradeReason(err error) string {
	var ex *resilience.ExhaustedError
	switch {
	case errors.Is(err, resilience.ErrBreakerOpen):
		return "breaker_open"
	case errors.Is(err, resilience.ErrBulkheadFull):
		return "bulkhead_full"
	case errors.As(err, &ex):
		// Checked before the timeout identity: an ExhaustedError may
		// wrap a final attempt timeout, but the story is the retries.
		return "retries_exhausted"
	case errors.Is(err, resilience.ErrAttemptTimeout):
		return "timeout"
	default:
		return "model_error"
	}
}

// cancellationError normalizes a stage failure that happened under a
// done context onto the engine's cancellation identity: the result
// matches cypher.ErrCanceled (and unwraps to the context cause), so
// Ask/AskBatch callers and the server's timeout shape see one error
// identity no matter which stage — Cypher scan or LLM call — the abort
// surfaced in. Errors unrelated to cancellation pass through, and the
// engine's cancel counters are untouched (no execution was aborted
// here that the engine didn't already count).
func cancellationError(ctx context.Context, err error) error {
	if err == nil || errors.Is(err, cypher.ErrCanceled) || ctx.Err() == nil {
		return err
	}
	return fmt.Errorf("%w (%v)", &cypher.CanceledError{Cause: ctx.Err()}, err)
}

// textToCypher translates and executes; it returns the executed query
// and result, or an error covering both translation and execution
// failure (the pipeline treats them identically: fall back).
func (p *Pipeline) textToCypher(ctx context.Context, question string, ans *Answer) (string, *cypher.Result, error) {
	resp, err := p.cfg.Model.Complete(ctx, llm.Request{
		Task:     llm.TaskText2Cypher,
		Question: question,
		Schema:   p.cfg.Schema,
	})
	if err != nil {
		return "", nil, err
	}
	ans.TokensIn += resp.TokensIn
	ans.TokensOut += resp.TokensOut
	query := strings.TrimSpace(resp.Text)
	res, err := p.execCypher(ctx, query, nil)
	if err != nil {
		return query, nil, fmt.Errorf("executing generated query: %w", err)
	}
	return query, res, nil
}

// vectorRetrieve embeds the question and fetches the nearest node
// descriptions. ctx bounds the scan: a dead request stops paying for
// the rest of the corpus at the next cancellation check.
func (p *Pipeline) vectorRetrieve(ctx context.Context, question string) ([]vector.Hit, error) {
	return p.index.SearchContext(ctx, p.embedder.Embed(question), p.cfg.VectorTopK, nil)
}

// SearchEntities exposes the retrieval tier directly: it embeds the
// free-text query and returns the k nearest node descriptions,
// optionally restricted to one label. This is the agent tool surface's
// entity-resolution primitive (search_entities) — unlike Ask, no
// translation or generation runs, just the vector index.
func (p *Pipeline) SearchEntities(ctx context.Context, query string, k int, kind string) ([]vector.Hit, error) {
	if k <= 0 {
		k = p.cfg.VectorTopK
	}
	var filter vector.Filter
	if kind != "" {
		filter = vector.KindFilter(kind)
	}
	p.metrics.Counter("pipeline.entity_searches").Inc()
	return p.index.SearchContext(ctx, p.embedder.Embed(query), k, filter)
}

// AnswerWithContext runs generation only: the model answers the
// question over caller-supplied context records, with no retrieval of
// its own. The agent tool surface uses it for follow-up asks that
// reason over prior tool results (session handles rendered to records);
// empty context degrades to a closed-book answer.
func (p *Pipeline) AnswerWithContext(ctx context.Context, question string, records []string) (*Answer, error) {
	started := time.Now()
	p.metrics.Counter("pipeline.ask").Inc()
	ans := &Answer{Question: question}
	for _, r := range records {
		ans.Context = append(ans.Context, ContextRecord{Source: "handle", Text: r})
	}
	resp, err := p.cfg.Model.Complete(ctx, llm.Request{
		Task:     llm.TaskAnswer,
		Question: question,
		Context:  records,
	})
	if err != nil {
		if !p.canDegrade(ctx, err) {
			return nil, fmt.Errorf("core: contextual generation: %w", cancellationError(ctx, err))
		}
		p.degrade(ans, ans.Context, nil, err, started)
		ans.Duration = time.Since(started)
		return ans, nil
	}
	ans.Text = resp.Text
	ans.TokensIn = resp.TokensIn
	ans.TokensOut = resp.TokensOut
	ans.Trace = append(ans.Trace, StageTrace{
		Stage:  "generate",
		Detail: fmt.Sprintf("%d caller-supplied context records", len(records)),
	})
	ans.Duration = time.Since(started)
	return ans, nil
}

// rerank scores every record with the shallow LLM scorer and keeps the
// best RerankKeep, preserving score order (ties by original position).
func (p *Pipeline) rerank(ctx context.Context, question string, records []ContextRecord, ans *Answer) ([]ContextRecord, error) {
	type scored struct {
		rec   ContextRecord
		score float64
		pos   int
	}
	all := make([]scored, len(records))
	for i, rec := range records {
		resp, err := p.cfg.Model.Complete(ctx, llm.Request{
			Task:     llm.TaskRerank,
			Question: question,
			Context:  []string{rec.Text},
		})
		if err != nil {
			return nil, fmt.Errorf("core: rerank: %w", err)
		}
		ans.TokensIn += resp.TokensIn
		ans.TokensOut += resp.TokensOut
		rec.Score = resp.Score
		all[i] = scored{rec: rec, score: resp.Score, pos: i}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].pos < all[j].pos
	})
	keep := p.cfg.RerankKeep
	if keep > len(all) {
		keep = len(all)
	}
	out := make([]ContextRecord, keep)
	for i := 0; i < keep; i++ {
		out[i] = all[i].rec
	}
	return out, nil
}

// AskClosedBook answers without any retrieval: the generation model
// sees only the question. This is the no-RAG baseline the evaluation
// compares the full pipeline against — with no graph context, the
// backbone can only decline or guess.
func (p *Pipeline) AskClosedBook(ctx context.Context, question string) (*Answer, error) {
	started := time.Now()
	resp, err := p.cfg.Model.Complete(ctx, llm.Request{
		Task:     llm.TaskAnswer,
		Question: question,
		Context:  nil,
		Salt:     "closed-book",
	})
	if err != nil {
		return nil, fmt.Errorf("core: closed-book generation: %w", err)
	}
	return &Answer{
		Question:  question,
		Text:      resp.Text,
		TokensIn:  resp.TokensIn,
		TokensOut: resp.TokensOut,
		Duration:  time.Since(started),
		Trace:     []StageTrace{{Stage: "generate", Detail: "closed book (no retrieval)"}},
	}, nil
}

// AnswerFromCypher executes a given Cypher query and synthesizes an
// answer from its results — the "validation model" used to produce
// reference answers from gold queries, and the engine behind the web
// UI's direct-query mode.
func (p *Pipeline) AnswerFromCypher(ctx context.Context, question, query, salt string) (*Answer, error) {
	res, err := p.execCypher(ctx, query, nil)
	if err != nil {
		return nil, err
	}
	records := FormatRows(res, p.cfg.MaxContextRows)
	resp, err := p.cfg.Model.Complete(ctx, llm.Request{
		Task:     llm.TaskAnswer,
		Question: question,
		Context:  records,
		Salt:     salt,
	})
	if err != nil {
		return nil, err
	}
	ans := &Answer{
		Question: question,
		Text:     resp.Text,
		Cypher:   query,
		Columns:  res.Columns,
		Rows:     res.Rows,
	}
	for _, rec := range records {
		ans.Context = append(ans.Context, ContextRecord{Source: "cypher", Text: rec})
	}
	return ans, nil
}

// QueryContext executes raw Cypher against the graph under a
// cancellation context: when ctx is canceled or its deadline expires,
// execution aborts early with an error matching cypher.ErrCanceled.
// This is the web UI passthrough.
func (p *Pipeline) QueryContext(ctx context.Context, query string, params map[string]any) (*cypher.Result, error) {
	return p.execCypherOpts(ctx, query, params, p.cfg.ExecOptions)
}

// QueryLimitedContext executes raw Cypher with a result-row cap layered
// over the pipeline's execution options: the streaming executor stops
// pulling once rowLimit rows are produced and sets Result.Truncated
// instead of erroring. A configured Config.ExecOptions.RowLimit that
// is tighter wins; rowLimit <= 0 means no extra cap. This is the
// entry point internal/server uses for POST /v1/cypher, so one user
// query cannot hold a worker for an unbounded scan — and with ctx
// carrying the endpoint deadline, not even for the capped one.
func (p *Pipeline) QueryLimitedContext(ctx context.Context, query string, params map[string]any, rowLimit int) (*cypher.Result, error) {
	opts := p.cfg.ExecOptions
	if rowLimit > 0 && (opts.RowLimit == 0 || rowLimit < opts.RowLimit) {
		opts.RowLimit = rowLimit
	}
	return p.execCypherOpts(ctx, query, params, opts)
}

// QueryStreamContext executes raw Cypher and returns a pull iterator
// over the result rows instead of a materialized Result: rows come off
// the streaming operator pipeline as the scan produces them, so a
// transport can ship the first row before the last one exists. The
// row cap layers over Config.ExecOptions exactly as in
// QueryLimitedContext (the tighter limit wins; rowLimit <= 0 adds no
// cap), queries go through the prepared-query plan cache, and ctx
// cancellation aborts the in-flight pull with an error matching
// cypher.ErrCanceled. Callers must Close the stream.
func (p *Pipeline) QueryStreamContext(ctx context.Context, query string, params map[string]any, rowLimit int) (*cypher.Stream, error) {
	opts := p.cfg.ExecOptions
	if rowLimit > 0 && (opts.RowLimit == 0 || rowLimit < opts.RowLimit) {
		opts.RowLimit = rowLimit
	}
	p.metrics.Counter("cypher.executions").Inc()
	if p.plans == nil {
		return cypher.ExecuteStreamContext(ctx, p.cfg.Graph, query, params, opts)
	}
	pq, err := p.plans.Prepare(query)
	if err != nil {
		return nil, err
	}
	return pq.StreamContext(ctx, p.cfg.Graph, params, opts)
}

// execCypher is the single Cypher entry point of the pipeline: every
// query — LLM-generated, gold, or user-supplied — goes through the
// prepared-query plan cache (when enabled) so repeated template shapes
// parse once and reuse their index-aware plans. ctx bounds execution;
// cancellation surfaces as an error matching cypher.ErrCanceled.
func (p *Pipeline) execCypher(ctx context.Context, query string, params map[string]any) (*cypher.Result, error) {
	return p.execCypherOpts(ctx, query, params, p.cfg.ExecOptions)
}

func (p *Pipeline) execCypherOpts(ctx context.Context, query string, params map[string]any, opts cypher.Options) (*cypher.Result, error) {
	p.metrics.Counter("cypher.executions").Inc()
	if p.plans == nil {
		return cypher.ExecuteWithContext(ctx, p.cfg.Graph, query, params, opts)
	}
	pq, err := p.plans.Prepare(query)
	if err != nil {
		return nil, err
	}
	return pq.ExecuteContext(ctx, p.cfg.Graph, params, opts)
}

// PlanCacheStats snapshots the plan cache's effectiveness counters. The
// zero value is returned when caching is disabled.
func (p *Pipeline) PlanCacheStats() cypher.PlanCacheStats {
	if p.plans == nil {
		return cypher.PlanCacheStats{}
	}
	return p.plans.Stats()
}

// ExecOptions returns the Cypher options this pipeline executes with,
// so plan descriptions (EXPLAIN endpoints) can reflect the decisions —
// like the parallel-vs-serial scan choice — the pipeline's own
// executions would actually make.
func (p *Pipeline) ExecOptions() cypher.Options {
	return p.cfg.ExecOptions
}

// SetMaxParallelism caps intra-query morsel parallelism for every
// execution this pipeline runs (see cypher.Options.MaxParallelism: 0
// restores the GOMAXPROCS default, 1 pins the serial path). Call it
// during setup, before the pipeline starts serving queries — it is not
// synchronized against in-flight Query calls.
func (p *Pipeline) SetMaxParallelism(n int) {
	p.cfg.ExecOptions.MaxParallelism = n
}

// Metrics returns the runtime counter registry this pipeline reports
// into, after mirroring the plan cache's current counters into it.
// Mirroring at read time (rather than per query) keeps the hot path
// free of extra locking; note that pipelines sharing one registry
// overwrite each other's plan-cache gauges, so deployments with
// multiple pipelines should give each its own Registry (or read
// PlanCacheStats directly, which is always per-pipeline).
func (p *Pipeline) Metrics() *metrics.Registry {
	if p.plans != nil {
		s := p.plans.Stats()
		p.metrics.Counter("cypher.plan_cache.hits").Set(int64(s.Hits))
		p.metrics.Counter("cypher.plan_cache.misses").Set(int64(s.Misses))
		p.metrics.Counter("cypher.plan_cache.evictions").Set(int64(s.Evictions))
		p.metrics.Counter("cypher.plan_cache.size").Set(int64(s.Size))
	}
	// Streaming-executor counters are process-global (like the plan
	// cache's, they are maintained outside the registry and mirrored at
	// read time).
	rowsStreamed, earlyExit := cypher.StreamStats()
	p.metrics.Counter("cypher.rows_streamed").Set(rowsStreamed)
	p.metrics.Counter("cypher.limit_early_exit").Set(earlyExit)
	canceled, deadlineExceeded := cypher.CancelStats()
	p.metrics.Counter("cypher.canceled").Set(canceled)
	p.metrics.Counter("cypher.deadline_exceeded").Set(deadlineExceeded)
	parallelQueries, morsels := cypher.ParallelStats()
	p.metrics.Counter("cypher.parallel_queries").Set(parallelQueries)
	p.metrics.Counter("cypher.morsels_dispatched").Set(morsels)
	// Snapshot-read-path counters (per-graph, mirrored like the rest):
	// view_pins counts epoch pins (one per read-only execution, plus
	// construction-time walks); snapshot_publishes counts epochs
	// actually rebuilt — the write-churn readers observed — and
	// publish_ns the wall time those builds took. A large
	// pins/publishes ratio means reads are running lock-free.
	pins, publishes, publishNanos := p.cfg.Graph.SnapshotStats()
	p.metrics.Counter("graph.view_pins").Set(pins)
	p.metrics.Counter("graph.snapshot_publishes").Set(publishes)
	p.metrics.Counter("graph.publish_ns").Set(publishNanos)
	// Retrieval-tier counters: ann_searches is process-global (every
	// HNSW search, retrieval or cache probe); the semcache counters are
	// per-pipeline and read zero while the cache is disabled so the
	// metrics surface stays stable.
	p.metrics.Counter("vector.ann_searches").Set(int64(vector.AnnSearchStats()))
	p.metrics.Counter("vector.hnsw_replaces").Set(int64(vector.HNSWReplaceStats()))
	// Persistence-tier counters (process-global): WAL traffic, base
	// checkpoints, records replayed at open, and the wall time of the
	// last snapshot load (0 until a snapshot has been loaded).
	ps := persist.Stats()
	p.metrics.Counter("persist.wal_appends").Set(ps.WALAppends)
	p.metrics.Counter("persist.wal_bytes").Set(ps.WALBytes)
	p.metrics.Counter("persist.checkpoints").Set(ps.Checkpoints)
	p.metrics.Counter("persist.replay_records").Set(ps.ReplayRecords)
	p.metrics.Counter("graph.load_ns").Set(graph.LastLoadNanos())
	var scs SemCacheStats
	if p.semcache != nil {
		scs = p.semcache.stats()
	}
	p.metrics.Counter("semcache.hits").Set(int64(scs.Hits))
	p.metrics.Counter("semcache.misses").Set(int64(scs.Misses))
	p.metrics.Counter("semcache.stale").Set(int64(scs.Stale))
	p.metrics.Counter("semcache.stale_served").Set(int64(scs.StaleServed))
	p.metrics.Counter("semcache.size").Set(int64(scs.Size))
	return p.metrics
}

// SemCacheStats snapshots the semantic answer cache's counters. The
// zero value is returned when the cache is disabled.
func (p *Pipeline) SemCacheStats() SemCacheStats {
	if p.semcache == nil {
		return SemCacheStats{}
	}
	return p.semcache.stats()
}

// FormatRows renders result rows into compact context records. A
// single-column result renders bare values; multi-column results render
// "col: value" pairs. At most limit rows are rendered; the remainder is
// summarized in a trailing record so generation can report totals.
func FormatRows(res *cypher.Result, limit int) []string {
	if res == nil || len(res.Rows) == 0 {
		return nil
	}
	out := make([]string, 0, len(res.Rows)+1)
	for i, row := range res.Rows {
		if i == limit {
			out = append(out, fmt.Sprintf("(%d more rows)", len(res.Rows)-limit))
			break
		}
		if len(res.Columns) == 1 {
			out = append(out, graph.FormatValue(row[0]))
			continue
		}
		parts := make([]string, len(res.Columns))
		for j, col := range res.Columns {
			parts[j] = col + ": " + graph.FormatValue(row[j])
		}
		out = append(out, strings.Join(parts, ", "))
	}
	return out
}
