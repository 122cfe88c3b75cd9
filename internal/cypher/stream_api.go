package cypher

import (
	"context"

	"chatiyp/internal/graph"
)

// This file is the public face of the streaming executor: a pull
// iterator callers drive row by row, so transports (the HTTP server's
// NDJSON mode, cursor pagination) can put the first result on the wire
// before the scan has finished. Execute and friends drain the same
// pipeline into a materialized Result; Stream hands the pipeline to the
// caller instead.

// Stream is a pull iterator over one query execution's result rows.
// Rows come off the streaming operator pipeline as the scan produces
// them; queries the streaming executor cannot run (write clauses,
// Options.DisableStreaming) are executed eagerly on the materializing
// reference path and replayed row by row, so callers see one interface
// either way.
//
// A Stream is single-goroutine: calls to Next must not race. Callers
// must call Close when done (Close is idempotent and implied by
// draining the stream to its end); an abandoned, unclosed stream leaks
// no resources but under-reports the executor's row counters.
type Stream struct {
	cols      []string
	truncated bool
	done      bool
	counted   bool
	err       error

	// Streaming state (nil se means the materialized fallback below).
	se        *streamExec
	parts     []*stagePlan
	partIdx   int
	it        rowIter
	seen      map[string]bool
	lastDedup int
	rowLimit  int
	emitted   int

	// Materialized fallback state.
	res *Result
	ri  int
}

// ExecuteStream parses src and begins a streaming execution with
// default options and no cancellation context.
func ExecuteStream(g *graph.Graph, src string, params map[string]any) (*Stream, error) {
	return ExecuteStreamContext(context.Background(), g, src, params, Options{})
}

// ExecuteStreamContext parses src and begins a streaming execution:
// the returned Stream yields rows as the operator pipeline produces
// them. ctx cancellation aborts the in-flight pull with an error
// matching ErrCanceled, exactly as in ExecuteWithContext.
func ExecuteStreamContext(ctx context.Context, g *graph.Graph, src string, params map[string]any, opts Options) (*Stream, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return executeQueryStream(ctx, g, q, nil, params, opts)
}

// StreamContext begins a streaming execution of the prepared query,
// reusing its cached plan (see ExecuteContext for the plan-staleness
// rules and ExecuteStreamContext for the iterator contract).
func (pq *PreparedQuery) StreamContext(ctx context.Context, g *graph.Graph, params map[string]any, opts Options) (*Stream, error) {
	return executeQueryStream(ctx, g, pq.query, pq.planFor(g, opts), params, opts)
}

// executeQueryStream builds a Stream for a parsed query. Plan-time
// errors (parameter normalization, UNION column mismatches) surface
// here rather than on the first Next, so transports can still answer
// with a clean HTTP error before committing to a 200.
func executeQueryStream(ctx context.Context, g *graph.Graph, q *Query, plan *queryPlan, params map[string]any, opts Options) (*Stream, error) {
	opts = opts.withDefaults()
	if plan == nil {
		plan = planQuery(g, q, opts)
	}
	if !plan.streamable || opts.DisableStreaming {
		res, err := executeQueryPlanned(ctx, g, q, plan, params, opts)
		if err != nil {
			return nil, err
		}
		return &Stream{cols: res.Columns, truncated: res.Truncated, res: res}, nil
	}
	normParams := make(map[string]graph.Value, len(params))
	for k, v := range params {
		nv, err := graph.NormalizeValue(v)
		if err != nil {
			return nil, evalErrorf("parameter $%s: %v", k, err)
		}
		normParams[k] = nv
	}
	cols := plan.parts[0].cols
	for _, sp := range plan.parts[1:] {
		if len(sp.cols) != len(cols) {
			return nil, evalErrorf("UNION requires the same number of columns (%d vs %d)",
				len(cols), len(sp.cols))
		}
		for i := range sp.cols {
			if sp.cols[i] != cols[i] {
				return nil, evalErrorf("UNION requires matching column names (%q vs %q)",
					cols[i], sp.cols[i])
			}
		}
	}
	s := &Stream{
		cols: cols,
		// The snapshot is pinned here, when the stream is created — a
		// long-lived cursor page or NDJSON response then reads one
		// consistent graph epoch for its entire lifetime, no matter how
		// many writes land while rows trickle out.
		se:        &streamExec{ctx: &evalCtx{g: g, r: g.View(), params: normParams, opts: opts, plan: plan, ctx: ctx}},
		parts:     plan.parts,
		lastDedup: plan.lastDedup,
		rowLimit:  opts.RowLimit,
	}
	if plan.lastDedup >= 0 {
		s.seen = map[string]bool{}
	}
	return s, nil
}

// Columns returns the result column names, available before the first
// row (the NDJSON header record is written from this).
func (s *Stream) Columns() []string { return s.cols }

// Next returns the next result row, or ok=false at end of stream. Once
// Next has returned ok=false or an error, every later call repeats
// that outcome. Returned rows are owned by the caller.
func (s *Stream) Next() ([]graph.Value, bool, error) {
	if s.err != nil || s.done {
		return nil, false, s.err
	}
	if s.res != nil {
		if s.ri >= len(s.res.Rows) {
			s.finish()
			return nil, false, nil
		}
		row := s.res.Rows[s.ri]
		s.ri++
		return row, true, nil
	}
	for {
		if s.it == nil {
			if s.partIdx >= len(s.parts) {
				s.finish()
				return nil, false, nil
			}
			if err := s.se.ctx.pollCancel(); err != nil {
				return s.fail(err)
			}
			s.se.par = s.parts[s.partIdx].par
			it, err := s.se.build(s.parts[s.partIdx].root)
			if err != nil {
				return s.fail(err)
			}
			s.it = it
		}
		if err := s.se.ctx.checkCancel(); err != nil {
			return s.fail(err)
		}
		row, ok, err := s.it.Next()
		if err != nil {
			return s.fail(err)
		}
		if !ok {
			s.it = nil
			s.partIdx++
			continue
		}
		vals := make([]graph.Value, len(s.cols))
		for j, c := range s.cols {
			vals[j] = row[c]
		}
		if s.partIdx <= s.lastDedup {
			key := graph.ValueKey(vals)
			if s.seen[key] {
				continue
			}
			s.seen[key] = true
		}
		if s.rowLimit > 0 && s.emitted == s.rowLimit {
			// A row beyond the cap exists, so the flag is exact — same
			// semantics as Result.Truncated on the materializing paths.
			s.truncated = true
			s.se.limitHit = true
			s.finish()
			return nil, false, nil
		}
		s.emitted++
		return vals, true, nil
	}
}

// Truncated reports whether Options.RowLimit cut the stream off before
// the query's natural end. It is only meaningful after Next returned
// ok=false.
func (s *Stream) Truncated() bool { return s.truncated }

// Stats returns the write statistics of the execution. Streamed
// queries are read-only by construction, so stats are only non-zero
// when the materializing fallback ran a write query.
func (s *Stream) Stats() WriteStats {
	if s.res != nil {
		return s.res.Stats
	}
	return WriteStats{}
}

// Close ends the stream early, stopping any parallel morsel workers
// and flushing the executor's row counters for the rows already
// emitted. It never errs and may be called any number of times,
// including after the stream ended naturally.
func (s *Stream) Close() {
	s.done = true
	if s.se != nil {
		s.se.stopRuns()
	}
	s.flushCounters()
}

func (s *Stream) finish() {
	s.done = true
	if s.se != nil {
		s.se.stopRuns()
	}
	s.flushCounters()
}

func (s *Stream) fail(err error) ([]graph.Value, bool, error) {
	s.err = err
	s.done = true
	if s.se != nil {
		s.se.stopRuns()
	}
	s.flushCounters()
	return nil, false, err
}

// flushCounters mirrors the emitted-row count into the process-global
// streaming counters exactly once. The materialized fallback already
// counted (or deliberately bypassed) them inside Execute.
func (s *Stream) flushCounters() {
	if s.counted || s.res != nil {
		return
	}
	s.counted = true
	streamRowsStreamed.Add(int64(s.emitted))
	if s.se.limitHit {
		streamLimitEarlyExit.Add(1)
	}
}
