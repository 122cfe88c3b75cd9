package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"chatiyp/internal/api"
	"chatiyp/internal/core"
	"chatiyp/internal/cypher"
	"chatiyp/internal/embed"
	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
	"chatiyp/internal/llm"
	"chatiyp/internal/metrics"
	"chatiyp/internal/mmap"
	"chatiyp/internal/persist"
	"chatiyp/internal/resilience"
	"chatiyp/internal/vector"
)

// The traced run gives the per-layer numbers. It never touches the
// program: spans are recorded here, around calls into each layer's
// exported functions. Every traced op gets two root spans — http_op,
// the SDK round trip to the real server, and inproc_op, the same op
// through an in-process core.Pipeline assembled like the server's on
// the same snapshot. The model calls inside inproc_op are timed as they
// happen, by decorators around the injected llm.Model. The other stages
// have no seam to decorate, so they are replayed right after the op
// with the op's own inputs (embed, vector search, plan-cache prepare,
// execute, JSON encode) and recorded as children marked "replay": their
// clock interval lies after their parent's, their duration is what
// counts. Only the stages the op's own trace shows ran are replayed.

// traceOps is how many ops of the list the traced run replays.
const traceOps = 1000

// span is one timed call. Parent is the index of the causing span in
// the file, -1 for a root; Op is the index of the op in the list (-1
// for set-up work).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Replay bool   `json:"replay,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// The traced pass is one goroutine and every call it times is
// synchronous, so there is nothing to lock.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // open spans, innermost last
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op})
	t.stack = append(t.stack, id)
	t.spans[id].Start = time.Since(t.t0).Nanoseconds()
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	if len(t.stack) == 0 || t.stack[len(t.stack)-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = now
	return t.spans[id].dur()
}

// replay times fn as a child of parent that ran after it.
func (t *tracer) replay(name string, parent int, fn func()) time.Duration {
	id := t.begin(name)
	fn()
	d := t.end(id)
	t.spans[id].Parent = parent
	t.spans[id].Replay = true
	return d
}

func (t *tracer) write(path string, wire []wireStage) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span      `json:"spans"`
		Wire  []wireStage `json:"wire_trace"`
	}{t.spans, wire}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wireStage is one entry of the trace[] an AskResponse carried, kept as
// a cross-check of the spans recorded here.
type wireStage struct {
	Op         int     `json:"op"`
	Stage      string  `json:"stage"`
	DurationMS float64 `json:"duration_ms"`
}

// tracedModel is the timing decorator around an llm.Model: one span per
// Complete, named by name(task), plus call and token counts.
type tracedModel struct {
	inner llm.Model
	tr    *tracer
	name  func(llm.Task) string
	// lastQuery is the text of the latest text2cypher completion: the
	// query the pipeline went on to prepare and execute, which an
	// answer does not carry when the execution failed.
	lastQuery          string
	calls              int
	tokensIn, tokenOut int
}

func (m *tracedModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	id := m.tr.begin(m.name(req.Task))
	resp, err := m.inner.Complete(ctx, req)
	m.tr.end(id)
	m.calls++
	m.tokensIn += resp.TokensIn
	m.tokenOut += resp.TokensOut
	if req.Task == llm.TaskText2Cypher && err == nil {
		m.lastQuery = resp.Text
	}
	return resp, err
}

// inproc is the harness's own copy of what the server assembles at
// boot, with every step timed: these are the layers of setup_s.
type inproc struct {
	store    *persist.Store
	pipe     *core.Pipeline
	bare     *tracedModel // around the simulated model
	wrapped  *tracedModel // around the resilience wrapper
	plans    *cypher.PlanCache
	embedder *embed.Embedder
	docs     int
	timings  map[string]time.Duration
	// collectStats is the graph-statistics pass chatiyp-server logs at
	// start-up: the largest part of a boot that is not one of the
	// layers above.
	collectStats time.Duration
}

func timed(into map[string]time.Duration, name string, fn func() error) error {
	start := time.Now()
	err := fn()
	into[name] = time.Since(start)
	return err
}

// assemble builds the pipeline on g the way chatiyp.FromGraph and
// server.New do between them at serverFlags — lexicon, simulated model,
// resilience wrapper, core.New with the semantic cache and degradation
// on — with a timing decorator on either side of the wrapper.
// TestInprocMirrorsServer holds the two assemblies against each other.
func (ip *inproc) assemble(g *graph.Graph, tr *tracer) error {
	var lexicon *llm.Lexicon
	_ = timed(ip.timings, "core.lexicon_build_s", func() error {
		lexicon = core.BuildLexicon(g)
		return nil
	})
	reg := metrics.NewRegistry()
	ip.bare = &tracedModel{inner: llm.NewSim(llm.DefaultSimConfig(lexicon)), tr: tr,
		name: func(t llm.Task) string { return "llm." + t.String() }}
	ip.wrapped = &tracedModel{inner: resilience.Wrap(ip.bare, resilience.Config{}, reg), tr: tr,
		name: func(llm.Task) string { return "resilience.complete" }}
	return timed(ip.timings, "core.pipeline_build_s", func() (err error) {
		ip.pipe, err = core.New(core.Config{
			Graph: g, Model: ip.wrapped, Metrics: reg,
			SemCacheThreshold: semCacheThreshold, Degrade: true,
		})
		return err
	})
}

func newInproc() *inproc {
	return &inproc{timings: map[string]time.Duration{}, plans: cypher.NewPlanCache(0)}
}

// buildInproc opens dataDir like the server and assembles the pipeline
// on it, every step timed.
func buildInproc(tr *tracer, dataDir string) (*inproc, error) {
	ip := newInproc()

	// graph.load_s: the snapshot load alone, on a mapping of its own.
	if err := timed(ip.timings, "graph.load_s", func() error {
		m, err := mmap.Open(persist.BasePath(dataDir))
		if err != nil {
			return err
		}
		defer m.Close()
		_, _, err = graph.LoadColumnarBytes(m.Data, graph.ColLoadOptions{VerifyChecksums: true})
		return err
	}); err != nil {
		return nil, fmt.Errorf("loading the snapshot: %w", err)
	}
	popts, err := storeOptions()
	if err != nil {
		return nil, err
	}
	if err := timed(ip.timings, "persist.open_s", func() (err error) {
		ip.store, err = persist.Open(dataDir, popts)
		return err
	}); err != nil {
		return nil, fmt.Errorf("opening the data dir in-process: %w", err)
	}
	g := ip.store.Graph()
	if err := ip.assemble(g, tr); err != nil {
		return nil, fmt.Errorf("assembling the in-process pipeline: %w", err)
	}

	start := time.Now()
	g.CollectStats()
	ip.collectStats = time.Since(start)

	// vector.build_s: what core.New spends on retrieval — describe
	// every node, fit the embedder, fill the exact index. The embedder
	// is kept: it is fitted like the pipeline's and serves the replays.
	if err := timed(ip.timings, "vector.build_s", func() error {
		descs := iyp.Describe(g)
		corpus := make([]string, len(descs))
		for i, d := range descs {
			corpus[i] = d.Text
		}
		ip.embedder = embed.NewDefault()
		ip.embedder.Fit(corpus)
		index := vector.NewIndex(ip.embedder.Dim())
		for _, d := range descs {
			if err := index.Add(vector.Doc{ID: d.NodeID, Text: d.Text, Kind: d.Label, Vec: ip.embedder.Embed(d.Text)}); err != nil {
				return err
			}
		}
		ip.docs = index.Len()
		return nil
	}); err != nil {
		return nil, fmt.Errorf("replaying the vector build: %w", err)
	}
	return ip, nil
}

// stableBytes is the size of a decoded response encoded again with its
// wall-clock fields zeroed, so that the figure repeats exactly.
func stableBytes(r reply) int {
	var v any
	if r.ask != nil {
		c := *r.ask
		c.DurationMS = 0
		c.Trace = append([]api.TraceEntry(nil), c.Trace...)
		for i := range c.Trace {
			c.Trace[i].DurationMS = 0
		}
		v = c
	} else {
		v = r.cypher
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	return len(raw) + 1 // the encoder's trailing newline
}

// samples collects per-op durations by metric name, in µs.
type samples map[string][]float64

func (s samples) add(name string, d time.Duration) {
	s[name] = append(s[name], float64(d.Nanoseconds())/1e3)
}

func (s samples) median(name string) float64 { return median(s[name]) }

// tracedPass is the single-goroutine replay of the list: per op the
// HTTP round trip, the in-process run, and the stage replays.
type tracedPass struct {
	tr   *tracer
	ip   *inproc
	fx   *fixture
	orc  *oracle
	c    *loadClient
	sm   samples
	wire []wireStage

	ops, failed, mismatched, divergent int
	// inprocTotal is the time spent in inproc_op spans and childTotal
	// the part of it their children cover.
	inprocTotal, childTotal time.Duration
	rows, respBytes         int
	execs, allocs           int
	allocBytes              uint64
	probe                   string
}

var bg = context.Background()

func (tp *tracedPass) run(i int, p op) {
	tp.tr.op = i
	tp.ops++
	tp.ip.bare.lastQuery = ""

	httpID := tp.tr.begin("http_op")
	r := tp.c.send(p)
	httpDur := tp.tr.end(httpID)
	if out := judge(tp.orc, p, r); out.failed {
		tp.failed++
		return
	}
	tp.sm.add("http_op", httpDur)
	tp.respBytes += stableBytes(r)

	inID := tp.tr.begin("inproc_op")
	var (
		ans *core.Answer
		res *cypher.Result
		err error
	)
	if p.Ask {
		ans, err = tp.ip.pipe.Ask(bg, p.Text)
	} else {
		res, err = tp.ip.pipe.QueryLimitedContext(bg, p.Text, p.Params, oracleOptions.RowLimit)
	}
	inDur := tp.tr.end(inID)
	if err != nil {
		tp.failed++
		return
	}
	tp.sm.add("inproc_op", inDur)
	tp.sm.add("http_overhead", httpDur-inDur)

	var children time.Duration
	if p.Ask {
		tp.sm.add("core.ask", inDur)
		children = tp.replayAsk(inID, p, ans)
		tp.rows += len(ans.Rows)
		switch {
		case r.ask.Cypher != ans.Cypher || r.ask.CacheHit != ans.CacheHit:
			// The simulated model picks the relationship type it
			// confuses by ranging over a map, so two processes can
			// translate one question differently. Not comparable.
			tp.divergent++
		case rowsKey(r.ask.Rows, true) != wireKey(ans.Rows):
			tp.mismatched++
		}
		for _, st := range r.ask.Trace {
			tp.wire = append(tp.wire, wireStage{Op: i, Stage: st.Stage, DurationMS: st.DurationMS})
		}
		tp.sm.add("core.self", max(0, inDur-children))
	} else {
		children = tp.replayCypher(inID, p, inDur)
		tp.rows += len(res.Rows)
		if rowsKey(r.cypher.Rows, true) != wireKey(res.Rows) {
			tp.mismatched++
		}
	}
	tp.inprocTotal += inDur
	tp.childTotal += min(children, inDur)
	// The response as it arrived, encoded again: the same struct and
	// values the server encoded.
	tp.sm.add("server.encode", tp.tr.replay("server.encode", httpID, func() {
		if p.Ask {
			_, _ = json.Marshal(r.ask) // timed only; the bytes are not needed
		} else {
			_, _ = json.Marshal(r.cypher)
		}
	}))
}

// wireKey is rowsKey of in-process rows as they would arrive.
func wireKey(rows [][]graph.Value) string {
	w, err := wireRows(rows)
	if err != nil {
		return "?" + err.Error()
	}
	return rowsKey(w, true)
}

// modelCalls reads the spans the model decorators recorded while the
// inproc_op at index parent ran (they are everything after it so far):
// the resilience.complete spans are its direct children, each holding
// one llm.<task> span. It returns the time the direct children cover.
func (tp *tracedPass) modelCalls(parent int) (covered time.Duration) {
	var rerank time.Duration
	for _, s := range tp.tr.spans[parent+1:] {
		switch s.Name {
		case "resilience.complete":
			covered += s.dur()
		case "llm.text2cypher", "llm.answer":
			tp.sm.add(s.Name, s.dur())
		case "llm.rerank":
			rerank += s.dur() // eight calls per fallback; reported per op
		}
	}
	if rerank > 0 {
		tp.sm.add("llm.rerank", rerank)
	}
	return covered
}

// replayAsk re-runs, with the question's own inputs, the stages the
// answer's trace shows ran, and returns the time inproc_op's children
// cover. A cache hit replays the embedding and nothing else.
func (tp *tracedPass) replayAsk(parent int, p op, ans *core.Answer) time.Duration {
	ip := tp.ip
	covered := tp.modelCalls(parent)

	// The semantic-cache probe embeds the question on every ask.
	embedDur := tp.tr.replay("embed.embed", parent, func() { ip.embedder.Embed(p.Text) })
	tp.sm.add("embed.embed", embedDur)
	covered += embedDur

	ranText2Cypher, ranVector := false, false
	for _, st := range ans.Trace {
		switch st.Stage {
		case "text2cypher":
			ranText2Cypher = true
		case "vector":
			ranVector = true
		}
	}
	if ranText2Cypher && ip.bare.lastQuery != "" {
		covered += tp.replayQuery(parent, ip.bare.lastQuery, nil, classLight)
		ip.bare.lastQuery = ""
	}
	if ranVector {
		d := tp.tr.replay("vector.search", parent, func() {
			_, _ = ip.pipe.SearchEntities(bg, p.Text, 0, "") // timed only
		})
		tp.sm.add("vector.search", d)
		covered += d
	}
	return covered
}

// replayQuery times plan-cache prepare and execute of one read on the
// in-process graph, and counts the allocations of the execute.
func (tp *tracedPass) replayQuery(parent int, query string, params map[string]any, class string) time.Duration {
	var pq *cypher.PreparedQuery
	var err error
	prep := tp.tr.replay("cypher.prepare", parent, func() { pq, err = tp.ip.plans.Prepare(query) })
	tp.sm.add("cypher.prepare", prep)
	if err != nil {
		return prep // the pipeline stopped at the same syntax error
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	exec := tp.tr.replay("cypher.exec", parent, func() {
		_, _ = pq.ExecuteContext(bg, tp.ip.store.Graph(), params, oracleOptions) // an execution error is part of the op
	})
	runtime.ReadMemStats(&after)
	tp.execs++
	tp.allocs += int(after.Mallocs - before.Mallocs)
	tp.allocBytes += after.TotalAlloc - before.TotalAlloc
	tp.sm.add("cypher.exec_"+class, exec)
	return prep + exec
}

// replayCypher covers a /v1/cypher op. A read is prepared and executed
// again. A write cannot be run twice, so only its prepare is replayed:
// the rest of inproc_op is the write itself. The same write then runs
// on the plain oracle graph (no WAL behind it), and a fixed light read
// runs twice on the written graph — the first pays for publishing the
// new snapshot epoch, the second does not.
func (tp *tracedPass) replayCypher(parent int, p op, inDur time.Duration) time.Duration {
	if p.Class != classWrite {
		return tp.replayQuery(parent, p.Text, p.Params, p.Class)
	}
	var pq *cypher.PreparedQuery
	var err error
	prep := tp.tr.replay("cypher.prepare", parent, func() { pq, err = tp.ip.plans.Prepare(p.Text) })
	tp.sm.add("cypher.prepare", prep)
	tp.sm.add("cypher.write", inDur-prep)
	if err == nil {
		id := tp.tr.begin("plain_write")
		_, _ = pq.ExecuteContext(bg, tp.fx.graph, p.Params, oracleOptions) // timed only; the oracle's reads never see notes
		tp.sm.add("plain_write", tp.tr.end(id))
	}
	probe := func() time.Duration {
		id := tp.tr.begin("publish_probe")
		_, _ = tp.ip.pipe.QueryLimitedContext(bg, tp.probe, nil, oracleOptions.RowLimit) // timed only
		return tp.tr.end(id)
	}
	first := probe()
	tp.sm.add("graph.publish", first-probe())
	return inDur // the write is its own child
}

// runTraced is the -trace 1 run. Server A serves an untraced
// one-client pass over the prefix, with the server's counters scraped
// around it: the counts per op, and the base of trace.overhead_ratio.
// That pass also gives the client.* speed figures: one client, the first
// 1,000 ops. Server B, on a second copy of the untouched data dir, serves
// the traced pass. Both are warmed up like the end-to-end run.
func runTraced(cfg *config, rep *report, fx *fixture, ops *opList, orc *oracle, dataDir string) error {
	dirB, dirIn := filepath.Join(cfg.tmp, "data-b"), filepath.Join(cfg.tmp, "data-inproc")
	for _, d := range []string{dirB, dirIn} {
		if err := copyDataDir(dataDir, d); err != nil {
			return err
		}
	}
	// --- untraced pass on server A ---
	srvA, err := startServer(cfg.serverBin, dataDir, filepath.Join(cfg.tmp, "server-a.log"))
	if err != nil {
		return err
	}
	clientA, err := newLoadClient(srvA.base)
	if err != nil {
		return err
	}
	firstWrite, err := runWarmup(clientA, orc, ops.Warmup)
	if err != nil {
		return err
	}
	before, err := srvA.scrape()
	if err != nil {
		return err
	}
	calibBefore := calibrate()
	cpuBefore, err := srvA.cpuSeconds()
	if err != nil {
		return err
	}
	outs, wallA := runClosedLoop(clientA, orc, ops.Measured, time.Now().Add(measuredTimeout))
	cpuAfter, err := srvA.cpuSeconds()
	if err != nil {
		return err
	}
	calibAfter := calibrate()
	after, err := srvA.scrape()
	if err != nil {
		return err
	}
	untraced := summarize(outs)
	rep.Attempted, rep.Failed = untraced.attempted, untraced.failed
	if len(outs) < len(ops.Measured) {
		rep.problem("untraced pass hit its deadline after %d of %d operations", len(outs), len(ops.Measured))
	}
	// Every workload stops and reboots here, writes or not: every server
	// checkpoints on SIGTERM, and the next boot is what a restart costs.
	if _, err := checkDurability(cfg, rep, srvA, clientA, dataDir, ops.creates()); err != nil {
		return err
	}

	// --- traced pass on server B, mirrored in-process ---
	tr := newTracer()
	ip, err := buildInproc(tr, dirIn)
	if err != nil {
		return err
	}
	srvB, err := startServer(cfg.serverBin, dirB, filepath.Join(cfg.tmp, "server-b.log"))
	if err != nil {
		return err
	}
	clientB, err := newLoadClient(srvB.base)
	if err != nil {
		return err
	}
	if _, err := runWarmup(clientB, orc, ops.Warmup); err != nil {
		return err
	}
	for _, p := range ops.Warmup {
		if p.Ask {
			_, err = ip.pipe.Ask(bg, p.Text)
		} else {
			_, err = ip.pipe.QueryLimitedContext(bg, p.Text, p.Params, oracleOptions.RowLimit)
		}
		if err != nil {
			return fmt.Errorf("in-process warm-up: %w", err)
		}
		if !p.Ask {
			_, _ = ip.plans.Prepare(p.Text) // keep the replay plan cache in step with the pipeline's
		} else if ip.bare.lastQuery != "" {
			_, _ = ip.plans.Prepare(ip.bare.lastQuery)
			ip.bare.lastQuery = ""
		}
	}
	ip.bare.calls, ip.bare.tokensIn, ip.bare.tokenOut = 0, 0, 0
	tr.spans = tr.spans[:0] // warm-up spans are not part of the trace

	tp := &tracedPass{tr: tr, ip: ip, fx: fx, orc: orc, c: clientB, sm: samples{},
		probe: fx.questions[0].GoldCypher}
	for i, p := range ops.Measured {
		tp.run(i, p)
	}
	tr.op = -1
	if _, err := srvB.stop(); err != nil {
		return err
	}
	if err := ip.store.Close(); err != nil {
		return fmt.Errorf("closing the in-process store: %w", err)
	}
	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), tp.wire); err != nil {
		return err
	}

	rep.Attempted += tp.ops
	rep.Failed += tp.failed
	if rep.Failed > 0 {
		rep.problem("%d operations failed (untraced pass: %s)", rep.Failed, untraced.firstFailure)
	}
	if tp.mismatched > 0 {
		rep.problem("%d in-process results differ from the server's", tp.mismatched)
	}
	if !ops.Measured[0].Ask && untraced.correct != untraced.attempted {
		rep.problem("%d of %d responses differ from the in-process oracle", untraced.attempted-untraced.correct, untraced.attempted)
	}
	tp.report(rep, untraced, before, after)
	untraced.reportClient(rep, wallA, cpuAfter-cpuBefore)
	for name, d := range ip.timings {
		rep.gate(name, d.Seconds(), "s")
	}
	rep.gate("vector.docs", float64(ip.docs), "count")
	rep.gate("graph.first_write_ms", float64(firstWrite.Nanoseconds())/1e6, "ms")
	rep.gate("host.calib_ms", float64(calibBefore.Nanoseconds())/1e6, "ms")
	rep.gate("host.calib_drift", float64(calibAfter)/float64(calibBefore), "ratio")
	rep.info("setup.boot_s", srvB.bootTime.Seconds(), "s")
	rep.info("setup.layers_s", (ip.timings["persist.open_s"] + ip.timings["core.lexicon_build_s"] + ip.timings["core.pipeline_build_s"]).Seconds(), "s")
	rep.info("setup.collect_stats_s", ip.collectStats.Seconds(), "s")
	return nil
}

// report derives the per-layer metrics of the traced pass.
func (tp *tracedPass) report(rep *report, untraced *loadSummary, before, after *serverMetrics) {
	n := float64(max(tp.ops-tp.failed, 1))
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	un := float64(max(untraced.attempted, 1))
	sm := tp.sm

	rep.gate("server.http_overhead_us", sm.median("http_overhead"), "us")
	rep.gate("server.encode_us", sm.median("server.encode"), "us")
	rep.gate("server.resp_bytes_per_op", float64(tp.respBytes)/n, "B")
	rep.gate("server.rejected", delta("server.rejected"), "count")
	if delta("server.rejected") != 0 {
		rep.problem("server rejected %v requests", delta("server.rejected"))
	}

	rep.gate("embed.embed_us", sm.median("embed.embed"), "us")
	rep.gate("core.semcache_hit_ratio", ratio(delta("semcache.hits"), delta("semcache.hits")+delta("semcache.misses")), "ratio")
	rep.gate("core.self_us", sm.median("core.self"), "us")
	rep.gate("core.ask_us", sm.median("core.ask"), "us")
	rep.gate("core.vector_fallback_ratio", delta("pipeline.vector_fallbacks")/un, "ratio")

	rep.gate("llm.text2cypher_us", sm.median("llm.text2cypher"), "us")
	rep.gate("llm.answer_us", sm.median("llm.answer"), "us")
	rep.gate("llm.rerank_us", sm.median("llm.rerank"), "us")
	rep.gate("llm.calls_per_op", float64(tp.ip.bare.calls)/n, "count")
	rep.gate("llm.tokens_in_per_op", float64(tp.ip.bare.tokensIn)/n, "count")
	rep.gate("llm.tokens_out_per_op", float64(tp.ip.bare.tokenOut)/n, "count")
	rep.gate("vector.search_us", sm.median("vector.search"), "us")
	rep.gate("resilience.overhead_us", tp.resilienceOverhead(), "us")

	hits, misses := float64(after.PlanCache.Hits-before.PlanCache.Hits), float64(after.PlanCache.Misses-before.PlanCache.Misses)
	rep.gate("cypher.prepare_us", sm.median("cypher.prepare"), "us")
	rep.gate("cypher.plan_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	rep.gate("cypher.exec_light_us", sm.median("cypher.exec_light"), "us")
	rep.gate("cypher.exec_heavy_us", sm.median("cypher.exec_heavy"), "us")
	rep.gate("cypher.rows_per_op", float64(tp.rows)/n, "count")
	rep.gate("cypher.allocs_per_op", ratio(float64(tp.allocs), float64(tp.execs)), "count")
	rep.gate("cypher.alloc_bytes_per_op", ratio(float64(tp.allocBytes), float64(tp.execs)), "B")
	rep.gate("cypher.parallel_queries_per_op", delta("cypher.parallel_queries")/un, "count")
	rep.gate("cypher.morsels_per_op", delta("cypher.morsels_dispatched")/un, "count")

	writes := float64(len(untraced.byClass[classWrite]))
	rep.gate("cypher.write_us", sm.median("cypher.write"), "us")
	rep.gate("graph.publishes_per_write", ratio(delta("graph.snapshot_publishes"), writes), "ratio")
	rep.gate("graph.publish_ms", sm.median("graph.publish")/1e3, "ms")
	rep.gate("graph.view_pins_per_op", delta("graph.view_pins")/un, "count")
	rep.gate("persist.wal_append_us", sm.median("cypher.write")-sm.median("plain_write"), "us")
	rep.gate("persist.wal_bytes_per_write", ratio(delta("persist.wal_bytes"), writes), "B")

	rep.gate("trace.overhead_ratio", ratio(sm.median("http_op"), percentile(untraced.sorted, 0.50)*1e3), "ratio")

	rep.info("trace.ops", float64(tp.ops), "count")
	rep.info("trace.spans", float64(len(tp.tr.spans)), "count")
	rep.info("trace.inproc_mismatch", float64(tp.mismatched), "count")
	rep.info("trace.inproc_divergent", float64(tp.divergent), "count")
	rep.info("trace.inproc_op_us", sm.median("inproc_op"), "us")
	rep.info("trace.http_op_us", sm.median("http_op"), "us")
	rep.info("trace.children_coverage", ratio(float64(tp.childTotal), float64(tp.inprocTotal)), "ratio")
	rep.info("client.correct_ratio", float64(untraced.correct)/un, "ratio")
	stages := map[string][]float64{}
	for _, w := range tp.wire {
		stages[w.Stage] = append(stages[w.Stage], w.DurationMS*1e3)
	}
	names := make([]string, 0, len(stages))
	for s := range stages {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		rep.info("wire."+s+"_us", median(stages[s]), "us")
	}
}

// resilienceOverhead is the median, over model calls, of the wrapped
// Complete minus the bare one it contains.
func (tp *tracedPass) resilienceOverhead() float64 {
	var over []float64
	spans := tp.tr.spans
	for i, s := range spans {
		if s.Name == "resilience.complete" && i+1 < len(spans) && spans[i+1].Parent == i {
			over = append(over, float64((s.dur()-spans[i+1].dur()).Nanoseconds())/1e3)
		}
	}
	return median(over)
}
