package cypher

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"chatiyp/internal/graph"
)

// drainStream pulls a Stream to its end and returns the collected rows.
func drainStream(t *testing.T, s *Stream) [][]graph.Value {
	t.Helper()
	rows := [][]graph.Value{}
	for {
		row, ok, err := s.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return rows
		}
		rows = append(rows, row)
	}
}

// TestStreamAPIEquivalenceCorpus drives the whole conformance corpus,
// and the error-parity queries, through the public pull iterator and
// checks the collected rows are bit-identical to the reference
// executor's, and that both fail on the same queries.
func TestStreamAPIEquivalenceCorpus(t *testing.T) {
	g := fixture(t)
	for _, src := range append(append([]string(nil), streamEquivCorpus...), errorParityCorpus...) {
		mres, merr := executeReference(context.Background(), g, src, nil, Options{})
		st, serr := ExecuteStream(g, src, nil)
		var rows [][]graph.Value
		if serr == nil {
			// Plan-time errors surface from ExecuteStream itself,
			// runtime errors from Next.
			rows = [][]graph.Value{}
			for {
				row, ok, err := st.Next()
				if err != nil || !ok {
					serr = err
					break
				}
				rows = append(rows, row)
			}
			st.Close()
		}
		if (serr == nil) != (merr == nil) {
			t.Fatalf("%s: error divergence: stream=%v reference=%v", src, serr, merr)
		}
		if serr != nil {
			continue
		}
		if !reflect.DeepEqual(st.Columns(), mres.Columns) {
			t.Fatalf("%s: columns diverge: %v vs %v", src, st.Columns(), mres.Columns)
		}
		if !reflect.DeepEqual(rows, mres.Rows) {
			t.Fatalf("%s: rows diverge:\nstream:    %v\nreference: %v", src, rows, mres.Rows)
		}
	}
}

func TestStreamAPIRowLimitTruncates(t *testing.T) {
	g := fixture(t)
	st, err := ExecuteStreamContext(context.Background(), g, "MATCH (a:AS) RETURN a.asn", nil, Options{RowLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := drainStream(t, st)
	if len(rows) != 2 || !st.Truncated() {
		t.Fatalf("rows=%d truncated=%v, want 2/true", len(rows), st.Truncated())
	}
	// Exhausted streams keep reporting end of stream.
	if _, ok, err := st.Next(); ok || err != nil {
		t.Fatalf("post-end Next = ok:%v err:%v", ok, err)
	}
}

func TestStreamAPIMaterializedFallback(t *testing.T) {
	g := fixture(t)
	// A write query runs to completion when its Stream is created;
	// the Stream replays the result and carries its stats.
	st, err := ExecuteStream(g, "CREATE (x:Thing {name: 'streamed'}) RETURN x.name", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := drainStream(t, st)
	if len(rows) != 1 || rows[0][0] != "streamed" {
		t.Fatalf("rows = %v", rows)
	}
	if st.Stats().NodesCreated != 1 {
		t.Fatalf("stats = %+v", st.Stats())
	}
}

func TestStreamAPICancellation(t *testing.T) {
	g := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	st, err := ExecuteStreamContext(ctx, g, "MATCH (a:AS) MATCH (b:AS) MATCH (c:AS) RETURN count(*)", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	_, _, err = st.Next()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// A failed stream keeps returning its error.
	if _, _, err2 := st.Next(); !errors.Is(err2, ErrCanceled) {
		t.Fatalf("repeat err = %v", err2)
	}
}

func TestStreamAPIPlanTimeErrors(t *testing.T) {
	g := fixture(t)
	if _, err := ExecuteStream(g, "RETURN 1 AS a UNION RETURN 2 AS b", nil); err == nil {
		t.Fatal("UNION column mismatch not reported at ExecuteStream time")
	}
	var syntaxErr *SyntaxError
	if _, err := ExecuteStream(g, "NOT CYPHER", nil); !errors.As(err, &syntaxErr) {
		t.Fatalf("err = %v, want *SyntaxError", err)
	}
}

func TestStreamAPICountsRows(t *testing.T) {
	g := fixture(t)
	before, exitBefore := StreamStats()
	st, err := ExecuteStream(g, "MATCH (a:AS) RETURN a.asn", nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(drainStream(t, st))
	if n == 0 {
		t.Fatal("no rows")
	}
	after, _ := StreamStats()
	if after-before != int64(n) {
		t.Errorf("rows_streamed moved by %d, want %d", after-before, n)
	}
	// Close after natural end must not double-count.
	st.Close()
	again, _ := StreamStats()
	if again != after {
		t.Errorf("Close double-counted: %d -> %d", after, again)
	}
	// An early-exited stream bumps the early-exit counter on Close.
	st2, err := ExecuteStreamContext(context.Background(), g, "MATCH (a:AS) RETURN a.asn", nil, Options{RowLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	drainStream(t, st2)
	_, exitAfter := StreamStats()
	if exitAfter <= exitBefore {
		t.Errorf("limit_early_exit did not move: %d -> %d", exitBefore, exitAfter)
	}
}

func TestStreamAPIPrepared(t *testing.T) {
	g := fixture(t)
	pq, err := Prepare("MATCH (a:AS) WHERE a.asn = $n RETURN a.name")
	if err != nil {
		t.Fatal(err)
	}
	st, err := pq.StreamContext(context.Background(), g, map[string]any{"n": 2497}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := drainStream(t, st)
	if len(rows) != 1 || rows[0][0] != "IIJ" {
		t.Fatalf("rows = %v", rows)
	}
}
