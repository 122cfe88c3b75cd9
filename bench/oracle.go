package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"chatiyp/internal/api"
	"chatiyp/internal/cypher"
	"chatiyp/internal/graph"
)

// The oracle runs every query on the harness's own copy of the graph
// and compares what the server returned with it. Values cross the wire
// as JSON, where int64 and float64 are one number type and nodes are
// objects, so both sides are reduced to the same canonical text first:
// the in-process rows by a JSON round trip, the received rows as
// decoded.

// oracleOptions are the options the server's /v1/cypher handler
// executes with: the default engine options under the 10k row cap.
var oracleOptions = cypher.Options{RowLimit: 10_000}

// appendCanon renders a decoded JSON value deterministically (map keys
// sorted).
func appendCanon(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, "null"...)
	case bool:
		return strconv.AppendBool(b, x)
	case float64:
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case string:
		return strconv.AppendQuote(b, x)
	case []any:
		b = append(b, '[')
		for i, e := range x {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendCanon(b, e)
		}
		return append(b, ']')
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = append(b, '{')
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, k)
			b = append(b, ':')
			b = appendCanon(b, x[k])
		}
		return append(b, '}')
	}
	// Not produced by encoding/json; keep it visible in a mismatch.
	return append(b, fmt.Sprintf("?%T", v)...)
}

// rowsKey canonicalises decoded rows into one string: rows in the
// order given when ordered, sorted (a multiset) otherwise.
func rowsKey(rows [][]graph.Value, ordered bool) string {
	keys := make([]string, len(rows))
	var buf []byte
	for i, row := range rows {
		buf = buf[:0]
		for j, v := range row {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = appendCanon(buf, v)
		}
		keys[i] = string(buf)
	}
	if !ordered {
		sort.Strings(keys)
	}
	return strings.Join(keys, "\n")
}

// wireRows passes in-process rows through JSON, as the server does.
func wireRows(rows [][]graph.Value) ([][]graph.Value, error) {
	raw, err := json.Marshal(rows)
	if err != nil {
		return nil, err
	}
	var out [][]graph.Value
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// expectation is what a read must return.
type expectation struct {
	columns string // joined with "\x00"
	rows    string // rowsKey in the query's own order when it has one
	set     string // rowsKey as a multiset
	ordered bool
}

// oracle memoises expectations per query text. It is filled before the
// measured phase (prepare), so the comparison during the run is two
// string compares.
type oracle struct {
	g  *graph.Graph // nil once released
	by map[string]*expectation
}

func newOracle(g *graph.Graph) *oracle {
	return &oracle{g: g, by: map[string]*expectation{}}
}

// hasOrderBy reports whether the query's result order is defined. The
// harness's own queries and the gold queries never hide the words in a
// string literal.
func hasOrderBy(query string) bool {
	return strings.Contains(strings.ToUpper(query), "ORDER BY")
}

func (o *oracle) expect(query string) (*expectation, error) {
	if e, ok := o.by[query]; ok {
		return e, nil
	}
	if o.g == nil {
		return nil, fmt.Errorf("oracle: %s: not prepared before the graph was released", query)
	}
	res, err := cypher.ExecuteWithContext(context.Background(), o.g, query, nil, oracleOptions)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", query, err)
	}
	rows, err := wireRows(res.Rows)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", query, err)
	}
	e := &expectation{columns: strings.Join(res.Columns, "\x00"), ordered: hasOrderBy(query)}
	e.set = rowsKey(rows, false)
	e.rows = e.set
	if e.ordered {
		e.rows = rowsKey(rows, true)
	}
	o.by[query] = e
	return e, nil
}

// prepare computes the expectation of every read in ops: the gold query
// of an ask, the query itself of a Cypher read.
func (o *oracle) prepare(ops []op) error {
	for _, p := range ops {
		q := p.Text
		if p.Ask {
			q = p.Gold
		} else if p.Class == classWrite {
			continue
		}
		if _, err := o.expect(q); err != nil {
			return err
		}
	}
	return nil
}

// release drops the graph: every expectation the run needs has been
// prepared, and a harness that keeps 88k nodes alive spends a third of a
// second of one core on each of its own GC cycles — on a 2-core box that
// is the server's tail latency.
func (o *oracle) release() { o.g = nil }

// checkAsk is the paper's execution-accuracy label: the rows the
// answer was built from equal the gold query's rows as a multiset,
// column names ignored. An answer without executed Cypher (vector
// fallback) is inaccurate.
func (o *oracle) checkAsk(p op, resp *api.AskResponse) bool {
	if resp.Cypher == "" || resp.CypherError != "" {
		return false
	}
	e, err := o.expect(p.Gold)
	if err != nil {
		return false
	}
	return e.set == rowsKey(resp.Rows, false)
}

// checkCypher compares a /v1/cypher response with the oracle: columns
// and rows for a read, the write statistics for a write.
func (o *oracle) checkCypher(p op, resp *api.CypherResponse) bool {
	if p.Class == classWrite {
		return resp.Stats == *p.Stats && len(resp.Rows) == 0
	}
	e, err := o.expect(p.Text)
	if err != nil {
		return false
	}
	return !resp.Truncated && !resp.Stats.Changed() &&
		strings.Join(resp.Columns, "\x00") == e.columns &&
		rowsKey(resp.Rows, e.ordered) == e.rows
}
