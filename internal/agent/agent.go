// Package agent is the MCP-flavored tool surface of ChatIYP: a small
// set of typed tools (describe_schema, search_entities, run_cypher,
// ask) an LLM agent calls over JSON-RPC 2.0, plus the multi-turn
// sessions that let a conversation reference its own earlier results.
// The package is transport-free — internal/server adapts it onto
// POST /v1/tools — and runs every tool through the same pipeline the
// one-shot API uses: run_cypher rides the streaming executor over one
// pinned View per call, search_entities the vector/HNSW index, ask the
// full RAG pipeline (or generation-only over session handles).
package agent

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"chatiyp/internal/api"
	"chatiyp/internal/core"
	"chatiyp/internal/cypher"
	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
	"chatiyp/internal/metrics"
	"chatiyp/internal/resilience"
)

// Service defaults.
const (
	DefaultSearchK    = 8
	MaxSearchK        = 64
	DefaultRowCap     = 1000
	maxContextRecords = 24
)

// Error is a failed agent operation with a stable code. RetryAfter is
// the backoff hint for budget errors; RPC, when non-zero, marks the
// failure as tool/params-level (answered in-band as a JSON-RPC error)
// rather than session-level (answered as an HTTP status).
type Error struct {
	Code       string
	Message    string
	RetryAfter time.Duration
	RPC        int
}

func (e *Error) Error() string { return e.Code + ": " + e.Message }

// Config assembles a Service.
type Config struct {
	// Pipeline executes every tool. Required.
	Pipeline *core.Pipeline
	// Sessions tunes the session store.
	Sessions StoreConfig
	// RowCap caps run_cypher results (0 = DefaultRowCap; negative
	// disables the cap).
	RowCap int
	// Metrics receives the agent.* counters; nil means the pipeline's
	// registry, so the counters surface through /v1/metrics without any
	// extra plumbing.
	Metrics *metrics.Registry
}

// Service dispatches tool calls and owns the session store.
type Service struct {
	pipe     *core.Pipeline
	cfg      Config
	store    *Store
	reg      *metrics.Registry
	keyProps map[string]string // node label → key property
}

// ErrNoPipeline rejects a Config without a pipeline.
var ErrNoPipeline = errors.New("agent: Config.Pipeline is required")

// NewService builds the tool service. The agent.* metrics (tool-call
// counters per tool, active-session gauge) are pre-created so they
// appear in snapshots at zero before any traffic.
func NewService(cfg Config) (*Service, error) {
	if cfg.Pipeline == nil {
		return nil, ErrNoPipeline
	}
	if cfg.RowCap == 0 {
		cfg.RowCap = DefaultRowCap
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = cfg.Pipeline.Metrics()
	}
	s := &Service{
		pipe:     cfg.Pipeline,
		cfg:      cfg,
		reg:      reg,
		store:    NewStore(cfg.Sessions, reg),
		keyProps: make(map[string]string),
	}
	for _, idx := range iyp.Indexes() {
		s.keyProps[idx[0]] = idx[1]
	}
	for _, tool := range []string{api.ToolDescribeSchema, api.ToolSearchEntities, api.ToolRunCypher, api.ToolAsk} {
		reg.Counter("agent.tool_calls{tool=" + tool + "}").Add(0)
	}
	reg.Counter("agent.tool_errors").Add(0)
	reg.Gauge("agent.sessions_active").Add(0)
	return s, nil
}

// Store exposes the session store (tests drive TTL/LRU through it).
func (s *Service) Store() *Store { return s.store }

// Tools describes the callable tools, MCP-style.
func (s *Service) Tools() []api.ToolDescriptor {
	return []api.ToolDescriptor{
		{
			Name:        api.ToolDescribeSchema,
			Description: "Return the IYP graph ontology: node labels, relationship types, their properties, and the rendered schema card.",
			InputSchema: map[string]any{"type": "object", "properties": map[string]any{}},
		},
		{
			Name:        api.ToolSearchEntities,
			Description: "Semantic entity search over node descriptions (vector index). Returns the k best-matching graph nodes with their key property, for binding into run_cypher parameters.",
			InputSchema: map[string]any{
				"type":     "object",
				"required": []string{"query"},
				"properties": map[string]any{
					"query": map[string]any{"type": "string", "description": "free-text entity description"},
					"k":     map[string]any{"type": "integer", "description": "max hits (default 8, cap 64)"},
					"kind":  map[string]any{"type": "string", "description": "restrict to one node label, e.g. Country"},
				},
			},
		},
		{
			Name:        api.ToolRunCypher,
			Description: "Execute a read-only Cypher query against the IYP graph (streaming, row-capped). bind resolves query parameters from prior result handles; explain returns the access plan instead of executing.",
			InputSchema: map[string]any{
				"type":     "object",
				"required": []string{"query"},
				"properties": map[string]any{
					"query":     map[string]any{"type": "string"},
					"params":    map[string]any{"type": "object"},
					"bind":      map[string]any{"type": "object", "description": "param name → {handle, row, column} reference into a prior result"},
					"row_limit": map[string]any{"type": "integer"},
					"explain":   map[string]any{"type": "boolean"},
				},
			},
		},
		{
			Name:        api.ToolAsk,
			Description: "Answer a natural-language question. With use, generation reasons over the listed session result handles instead of running retrieval.",
			InputSchema: map[string]any{
				"type":     "object",
				"required": []string{"question"},
				"properties": map[string]any{
					"question": map[string]any{"type": "string"},
					"use":      map[string]any{"type": "array", "items": map[string]any{"type": "string"}, "description": "result handles to use as context"},
				},
			},
		},
	}
}

// CreateSession issues a session (see Store.Create).
func (s *Service) CreateSession(ttlSeconds int) api.SessionInfo {
	sess := s.store.Create(ttlSeconds)
	return sess.info(s.store.cfg, false)
}

// SessionInfo resolves a session including its transcript.
func (s *Service) SessionInfo(id string) (api.SessionInfo, error) {
	sess, err := s.store.Get(id)
	if err != nil {
		return api.SessionInfo{}, err
	}
	return sess.info(s.store.cfg, true), nil
}

// DeleteSession removes a session.
func (s *Service) DeleteSession(id string) error {
	if !s.store.Delete(id) {
		return &Error{Code: api.CodeSessionNotFound, Message: "unknown session " + id}
	}
	return nil
}

// RowSink receives a streamed run_cypher result row by row (the server
// frames it as NDJSON notifications). Row reporting false means the
// consumer is gone and production should stop.
type RowSink interface {
	Header(cols []string) bool
	Row(row []graph.Value) bool
}

// Call dispatches one tool call, materializing the full result.
func (s *Service) Call(ctx context.Context, p api.ToolCallParams) (*api.ToolCallResult, error) {
	return s.call(ctx, p, nil)
}

// CallStream dispatches one tool call, streaming run_cypher rows
// through sink as the scan produces them (the final result then omits
// Rows). Tools without row streams behave exactly like Call.
func (s *Service) CallStream(ctx context.Context, p api.ToolCallParams, sink RowSink) (*api.ToolCallResult, error) {
	return s.call(ctx, p, sink)
}

func (s *Service) call(ctx context.Context, p api.ToolCallParams, sink RowSink) (*api.ToolCallResult, error) {
	var sess *Session
	if p.SessionID != "" {
		var err error
		sess, err = s.store.Get(p.SessionID)
		if err != nil {
			return nil, err
		}
		if err := sess.admit(s.store.cfg); err != nil {
			return nil, err
		}
	}
	if p.SaveAs != "" {
		if sess == nil {
			return nil, &Error{Code: api.CodeBadRequest, RPC: api.RPCInvalidParams,
				Message: "save_as requires a session_id"}
		}
		if !validHandleName(p.SaveAs) {
			return nil, &Error{Code: api.CodeBadRequest, RPC: api.RPCInvalidParams,
				Message: "save_as must be 1-32 word characters"}
		}
	}

	var (
		res     *api.ToolCallResult
		h       *Handle
		summary string
		tokens  int
		err     error
	)
	switch p.Name {
	case api.ToolDescribeSchema:
		res, summary = s.describeSchema()
	case api.ToolSearchEntities:
		res, h, summary, err = s.searchEntities(ctx, p.Arguments)
	case api.ToolRunCypher:
		res, h, summary, err = s.runCypher(ctx, p.Arguments, sess, sink)
	case api.ToolAsk:
		res, h, summary, tokens, err = s.ask(ctx, p.Arguments, sess)
	default:
		return nil, &Error{Code: api.CodeUnknownTool, RPC: api.RPCInvalidParams,
			Message: fmt.Sprintf("unknown tool %q (serve: %s, %s, %s, %s)", p.Name,
				api.ToolDescribeSchema, api.ToolSearchEntities, api.ToolRunCypher, api.ToolAsk)}
	}
	s.reg.Counter("agent.tool_calls{tool=" + p.Name + "}").Inc()
	if err != nil {
		s.reg.Counter("agent.tool_errors").Inc()
	}
	if sess != nil {
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		name := sess.commit(s.store.cfg, p.Name, summary, p.SaveAs, h, tokens, errStr)
		if res != nil {
			res.Handle = name
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// validHandleName restricts save_as names so they stay unambiguous in
// transcripts and bind references.
func validHandleName(name string) bool {
	if len(name) == 0 || len(name) > 32 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// decodeArgs unmarshals tool arguments strictly: unknown fields are an
// invalid-params error, so an agent's typo'd argument fails loudly
// instead of being silently dropped.
func decodeArgs(raw json.RawMessage, v any) error {
	if len(raw) == 0 {
		return nil
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &Error{Code: api.CodeBadRequest, RPC: api.RPCInvalidParams,
			Message: "invalid tool arguments: " + err.Error()}
	}
	return nil
}

func (s *Service) describeSchema() (*api.ToolCallResult, string) {
	entries := iyp.Schema()
	out := &api.DescribeSchemaResult{Text: iyp.SchemaText()}
	for _, e := range entries {
		out.Entries = append(out.Entries, api.SchemaEntryWire{
			Name: e.Name, Kind: e.Kind, Pattern: e.Pattern,
			Properties: e.Properties, Description: e.Description,
		})
	}
	return &api.ToolCallResult{Schema: out}, fmt.Sprintf("schema: %d entries", len(out.Entries))
}

func (s *Service) searchEntities(ctx context.Context, raw json.RawMessage) (*api.ToolCallResult, *Handle, string, error) {
	var p api.SearchEntitiesParams
	if err := decodeArgs(raw, &p); err != nil {
		return nil, nil, "", err
	}
	if strings.TrimSpace(p.Query) == "" {
		return nil, nil, "", &Error{Code: api.CodeBadRequest, RPC: api.RPCInvalidParams,
			Message: "search_entities: query is required"}
	}
	k := p.K
	switch {
	case k <= 0:
		k = DefaultSearchK
	case k > MaxSearchK:
		k = MaxSearchK
	}
	hits, err := s.pipe.SearchEntities(ctx, p.Query, k, p.Kind)
	if err != nil {
		return nil, nil, "", s.execError(err)
	}
	v := s.pipe.Graph().View()
	out := &api.SearchEntitiesResult{}
	h := &Handle{
		Tool:    api.ToolSearchEntities,
		Columns: []string{"id", "kind", "name", "text", "score"},
	}
	for _, hit := range hits {
		name := ""
		if prop, ok := s.keyProps[hit.Doc.Kind]; ok {
			if n := v.Node(hit.Doc.ID); n != nil {
				name = graph.FormatValue(n.Prop(prop))
			}
		}
		out.Hits = append(out.Hits, api.EntityHit{
			ID: hit.Doc.ID, Kind: hit.Doc.Kind, Name: name, Text: hit.Doc.Text, Score: hit.Score,
		})
		h.Rows = append(h.Rows, []graph.Value{hit.Doc.ID, hit.Doc.Kind, name, hit.Doc.Text, hit.Score})
		h.Records = append(h.Records, hit.Doc.Text)
	}
	summary := fmt.Sprintf("search %q → %d hits", p.Query, len(out.Hits))
	return &api.ToolCallResult{Search: out}, h, summary, nil
}

func (s *Service) runCypher(ctx context.Context, raw json.RawMessage, sess *Session, sink RowSink) (*api.ToolCallResult, *Handle, string, error) {
	var p api.RunCypherParams
	if err := decodeArgs(raw, &p); err != nil {
		return nil, nil, "", err
	}
	if strings.TrimSpace(p.Query) == "" {
		return nil, nil, "", &Error{Code: api.CodeBadRequest, RPC: api.RPCInvalidParams,
			Message: "run_cypher: query is required"}
	}
	parsed, err := cypher.Parse(p.Query)
	if err != nil {
		return nil, nil, "", s.execError(err)
	}
	if !parsed.ReadOnly() {
		return nil, nil, "", &Error{Code: api.CodeBadRequest, RPC: api.RPCInvalidParams,
			Message: "run_cypher is read-only; write queries are not available through the tool surface"}
	}
	params := p.Params
	if len(p.Bind) > 0 {
		if sess == nil {
			return nil, nil, "", &Error{Code: api.CodeBadRequest, RPC: api.RPCInvalidParams,
				Message: "bind references session result handles and requires a session_id"}
		}
		if params == nil {
			params = make(map[string]any, len(p.Bind))
		}
		for name, ref := range p.Bind {
			val, err := sess.bind(ref)
			if err != nil {
				return nil, nil, "", err
			}
			params[name] = val
		}
	}
	if p.Explain {
		plan, err := cypher.Explain(s.pipe.Graph(), p.Query, s.pipe.ExecOptions())
		if err != nil {
			return nil, nil, "", s.execError(err)
		}
		res := &api.RunCypherResult{Plan: plan}
		return &api.ToolCallResult{Cypher: res}, nil, "explain: " + firstLine(plan), nil
	}
	rowCap := s.cfg.RowCap
	if rowCap < 0 {
		rowCap = 0
	}
	if p.RowLimit > 0 && (rowCap == 0 || p.RowLimit < rowCap) {
		rowCap = p.RowLimit
	}
	st, err := s.pipe.QueryStreamContext(ctx, p.Query, params, rowCap)
	if err != nil {
		return nil, nil, "", s.execError(err)
	}
	defer st.Close()
	cols := st.Columns()
	if sink != nil && !sink.Header(cols) {
		return nil, nil, "", &Error{Code: api.CodeCanceled, RPC: api.RPCToolError,
			Message: "client went away during stream"}
	}
	var rows [][]graph.Value
	for {
		row, ok, err := st.Next()
		if err != nil {
			return nil, nil, "", s.execError(err)
		}
		if !ok {
			break
		}
		rows = append(rows, row)
		if sink != nil && !sink.Row(row) {
			return nil, nil, "", &Error{Code: api.CodeCanceled, RPC: api.RPCToolError,
				Message: "client went away during stream"}
		}
	}
	res := &api.RunCypherResult{
		Columns:   cols,
		TotalRows: len(rows),
		Stats:     WireStats(st.Stats()),
		Truncated: st.Truncated(),
	}
	if sink == nil {
		res.Rows = rows
	}
	h := &Handle{
		Tool:      api.ToolRunCypher,
		Columns:   cols,
		Rows:      rows,
		Truncated: res.Truncated,
	}
	if max := s.store.cfg.HandleRowCap; len(h.Rows) > max {
		h.Rows = h.Rows[:max]
		h.Truncated = true
	}
	h.Records = renderRows(cols, h.Rows, maxContextRecords)
	summary := fmt.Sprintf("cypher %s → %d rows", firstLine(p.Query), len(rows))
	return &api.ToolCallResult{Cypher: res}, h, summary, nil
}

func (s *Service) ask(ctx context.Context, raw json.RawMessage, sess *Session) (*api.ToolCallResult, *Handle, string, int, error) {
	var p api.AskToolParams
	if err := decodeArgs(raw, &p); err != nil {
		return nil, nil, "", 0, err
	}
	q := strings.TrimSpace(p.Question)
	if q == "" {
		return nil, nil, "", 0, &Error{Code: api.CodeBadRequest, RPC: api.RPCInvalidParams,
			Message: "ask: question is required"}
	}
	var (
		ans *core.Answer
		err error
	)
	if len(p.Use) > 0 {
		if sess == nil {
			return nil, nil, "", 0, &Error{Code: api.CodeBadRequest, RPC: api.RPCInvalidParams,
				Message: "use references session result handles and requires a session_id"}
		}
		records, rerr := sess.records(p.Use)
		if rerr != nil {
			return nil, nil, "", 0, rerr
		}
		if len(records) > maxContextRecords {
			records = records[:maxContextRecords]
		}
		ans, err = s.pipe.AnswerWithContext(ctx, q, records)
	} else {
		ans, err = s.pipe.Ask(ctx, q)
	}
	if err != nil {
		return nil, nil, "", 0, s.execError(err)
	}
	h := &Handle{
		Tool:    api.ToolAsk,
		Columns: []string{"question", "answer"},
		Rows:    [][]graph.Value{{q, ans.Text}},
		Records: []string{"Q: " + q + "\nA: " + ans.Text},
	}
	summary := fmt.Sprintf("ask %q", q)
	tokens := ans.TokensIn + ans.TokensOut
	return &api.ToolCallResult{Ask: WireAnswer(ans)}, h, summary, tokens, nil
}

// execError classifies an execution failure onto the stable code
// vocabulary as an in-band tool error: deadline expiry is timeout,
// cancellation canceled, Cypher syntax parse_error, anything else
// exec_error. (Session-level failures never reach here — they are
// raised before dispatch.)
func (s *Service) execError(err error) error {
	var agentErr *Error
	if errors.As(err, &agentErr) {
		return agentErr
	}
	code := api.CodeExecError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		code = api.CodeTimeout
	case errors.Is(err, cypher.ErrCanceled), errors.Is(err, context.Canceled):
		code = api.CodeCanceled
	case resilience.IsUnavailable(err):
		code = api.CodeUnavailable
	default:
		var syntaxErr *cypher.SyntaxError
		if errors.As(err, &syntaxErr) {
			code = api.CodeParseError
		}
	}
	return &Error{Code: code, RPC: api.RPCToolError, Message: err.Error()}
}

// WireAnswer converts a pipeline answer to its wire shape, as /v1/ask
// and the ask tool both return it.
func WireAnswer(ans *core.Answer) *api.AskResponse {
	resp := &api.AskResponse{
		Question:       ans.Question,
		Answer:         ans.Text,
		Cypher:         ans.Cypher,
		CypherError:    ans.CypherError,
		Columns:        ans.Columns,
		Rows:           ans.Rows,
		Fallback:       ans.UsedVectorFallback,
		CacheHit:       ans.CacheHit,
		Degraded:       ans.Degraded,
		DegradedReason: ans.DegradedReason,
		DurationMS:     float64(ans.Duration.Microseconds()) / 1000,
	}
	for _, c := range ans.Context {
		resp.Context = append(resp.Context, api.ContextRecord{Source: c.Source, Text: c.Text, Score: c.Score})
	}
	for _, t := range ans.Trace {
		resp.Trace = append(resp.Trace, api.TraceEntry{
			Stage: t.Stage, Detail: t.Detail, Err: t.Err,
			DurationMS: float64(t.Duration.Microseconds()) / 1000,
		})
	}
	return resp
}

// WireStats converts engine write statistics to the wire shape.
func WireStats(s cypher.WriteStats) api.WriteStats {
	return api.WriteStats{
		NodesCreated:         s.NodesCreated,
		NodesDeleted:         s.NodesDeleted,
		RelationshipsCreated: s.RelationshipsCreated,
		RelationshipsDeleted: s.RelationshipsDeleted,
		PropertiesSet:        s.PropertiesSet,
		LabelsAdded:          s.LabelsAdded,
		LabelsRemoved:        s.LabelsRemoved,
	}
}

// renderRows renders result rows the way core.FormatRows does: bare
// values for single-column results, "col: value" pairs otherwise, with
// a summary record when limit cuts the list off.
func renderRows(cols []string, rows [][]graph.Value, limit int) []string {
	if len(rows) == 0 {
		return nil
	}
	out := make([]string, 0, min(len(rows), limit)+1)
	for i, row := range rows {
		if i == limit {
			out = append(out, fmt.Sprintf("(%d more rows)", len(rows)-limit))
			break
		}
		if len(cols) == 1 {
			out = append(out, graph.FormatValue(row[0]))
			continue
		}
		parts := make([]string, len(cols))
		for j, col := range cols {
			if j < len(row) {
				parts[j] = col + ": " + graph.FormatValue(row[j])
			}
		}
		out = append(out, strings.Join(parts, ", "))
	}
	return out
}

// firstLine truncates a string to its first line for summaries.
func firstLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i] + " …"
	}
	if len(s) > 120 {
		s = s[:120] + "…"
	}
	return s
}
