package cypher

import (
	"context"
	"errors"
	"testing"
	"time"

	"chatiyp/internal/graph"
)

// slowFixture builds a graph whose chained-MATCH cross product is large
// enough that an uncancelled execution takes real wall-clock time while
// a canceled one must abort within a check interval.
func slowFixture(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g := graph.New()
	for i := 0; i < n; i++ {
		g.MustCreateNode([]string{"N"}, map[string]any{"i": i})
	}
	return g
}

// slowQuery is a three-way cross product with a blocking aggregate: on
// the streaming path every row flows through match iterators into the
// aggregate drain; on the reference executor each MATCH clause expands
// the binding table. n=60 gives 216k rows — noticeable work, far below
// MaxRows.
const slowQuery = "MATCH (a:N) MATCH (b:N) MATCH (c:N) RETURN count(*)"

func TestExecuteContextPreCanceled(t *testing.T) {
	g := slowFixture(t, 60)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		exec execFunc
	}{
		{"streaming", ExecuteWithContext},
		{"materialized", executeReference},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			_, err := tc.exec(ctx, g, slowQuery, nil, Options{})
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want to unwrap to context.Canceled", err)
			}
			if errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("explicit cancel must not match DeadlineExceeded")
			}
			if el := time.Since(start); el > 2*time.Second {
				t.Errorf("pre-canceled execution took %v", el)
			}
		})
	}
}

// TestCancelMidScanAbortsEarly cancels a running scan and checks that
// the pipeline and the reference executor both stop within a small wall-clock bound — far less than
// the uncancelled runtime — and report an error matching ErrCanceled.
func TestCancelMidScanAbortsEarly(t *testing.T) {
	g := slowFixture(t, 60)
	for _, tc := range []struct {
		name string
		exec execFunc
	}{
		{"streaming", ExecuteWithContext},
		{"materialized", executeReference},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(25 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := tc.exec(ctx, g, slowQuery, nil, Options{})
			elapsed := time.Since(start)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v (after %v), want ErrCanceled", err, elapsed)
			}
			// The check interval is 256 steps of ~µs-scale work; 5s is
			// orders of magnitude of slack for slow CI machines.
			if elapsed > 5*time.Second {
				t.Errorf("canceled scan took %v, want early abort", elapsed)
			}
		})
	}
}

func TestDeadlineExceededDistinguishable(t *testing.T) {
	g := slowFixture(t, 60)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := ExecuteContext(ctx, g, slowQuery, nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want to unwrap to context.DeadlineExceeded", err)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Errorf("err = %T, want *CanceledError", err)
	}
}

// TestStreamingMaterializingAgreeOnCancel pins that the pipeline and
// the reference executor surface the same ErrCanceled identity for the
// same canceled context.
func TestStreamingMaterializingAgreeOnCancel(t *testing.T) {
	g := slowFixture(t, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errStream := ExecuteWithContext(ctx, g, slowQuery, nil, Options{})
	_, errMat := executeReference(ctx, g, slowQuery, nil, Options{})
	if !errors.Is(errStream, ErrCanceled) || !errors.Is(errMat, ErrCanceled) {
		t.Fatalf("streaming err = %v, materialized err = %v; want both ErrCanceled", errStream, errMat)
	}
}

func TestCancelCountersAdvance(t *testing.T) {
	g := slowFixture(t, 40)
	beforeCanceled, beforeDeadline := CancelStats()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExecuteContext(ctx, g, slowQuery, nil); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	midCanceled, midDeadline := CancelStats()
	if midCanceled <= beforeCanceled {
		t.Errorf("canceled counter did not advance: %d -> %d", beforeCanceled, midCanceled)
	}
	if midDeadline != beforeDeadline {
		t.Errorf("deadline counter moved on explicit cancel: %d -> %d", beforeDeadline, midDeadline)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	if _, err := ExecuteContext(dctx, g, slowQuery, nil); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	afterCanceled, afterDeadline := CancelStats()
	if afterDeadline <= midDeadline {
		t.Errorf("deadline counter did not advance: %d -> %d", midDeadline, afterDeadline)
	}
	if afterCanceled <= midCanceled {
		t.Errorf("canceled counter must include deadline aborts: %d -> %d", midCanceled, afterCanceled)
	}
}

func TestPreparedExecuteContext(t *testing.T) {
	g := slowFixture(t, 60)
	pq, err := Prepare(slowQuery)
	if err != nil {
		t.Fatal(err)
	}
	// A live context executes normally.
	res, err := pq.ExecuteContext(context.Background(), g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Value(); !ok || v != int64(60*60*60) {
		t.Fatalf("count = %v", v)
	}
	// A canceled one aborts, and the prepared plan stays reusable.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pq.ExecuteContext(ctx, g, nil, Options{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if _, err := pq.ExecuteContext(context.Background(), g, nil, Options{}); err != nil {
		t.Fatalf("prepared query unusable after cancel: %v", err)
	}
}

// TestCancelVarLengthTraversal covers the var-length DFS poll: a dense
// graph with unbounded [*] expansion explodes combinatorially, and only
// the in-DFS check can stop it between anchor candidates.
func TestCancelVarLengthTraversal(t *testing.T) {
	g := graph.New()
	const n = 18
	var ids []int64
	for i := 0; i < n; i++ {
		ids = append(ids, g.MustCreateNode([]string{"V"}, map[string]any{"i": i}).ID)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustCreateRelationship(ids[i], ids[j], "E", nil)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	start := time.Now()
	// Undirected unbounded expansion over a clique: the walk count is
	// astronomically larger than anything completable, so only the
	// in-DFS cancellation poll can stop it.
	_, err := ExecuteWithContext(ctx, g, "MATCH (a:V)-[*1..12]-(b:V) RETURN count(*)", nil, Options{MaxVarLength: 12})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v (after %v), want ErrCanceled", err, time.Since(start))
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("var-length traversal ran %v past its deadline", el)
	}
}

func TestUncancelledContextExecutionUnchanged(t *testing.T) {
	g := fixture(t)
	res, err := ExecuteContext(context.Background(), g, "MATCH (a:AS) RETURN a.asn ORDER BY a.asn", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// nil-params write path still works through the ctx entry point.
	if _, err := ExecuteContext(context.Background(), g, "CREATE (x:Tmp {k: 1})", nil); err != nil {
		t.Fatal(err)
	}
}

// TestCancelInsideExpressionEval pins the gap a review found: a single
// expression can generate unbounded work (range() building a huge
// list, then comprehension/UNWIND walking it), which the per-row checks
// never see inside of. The expression evaluator must poll on its own.
func TestCancelInsideExpressionEval(t *testing.T) {
	g := graph.New()
	for _, tc := range []struct {
		name string
		src  string
		exec execFunc
	}{
		{"range", "RETURN range(0, 300000000) AS xs", ExecuteWithContext},
		{"range-materialized", "RETURN range(0, 300000000) AS xs", executeReference},
		{"comprehension", "WITH range(0, 5000000) AS xs RETURN [x IN xs WHERE x % 2 = 0 | x * 2] AS ys", ExecuteWithContext},
		{"quantifier", "WITH range(0, 5000000) AS xs RETURN all(x IN xs WHERE x >= 0) AS ok", ExecuteWithContext},
		{"unwind", "UNWIND range(0, 50000000) AS x RETURN count(x)", ExecuteWithContext},
		{"unwind-materialized", "UNWIND range(0, 50000000) AS x RETURN count(x)", executeReference},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := tc.exec(ctx, g, tc.src, nil, Options{})
			elapsed := time.Since(start)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v (after %v), want ErrCanceled", err, elapsed)
			}
			if elapsed > 5*time.Second {
				t.Errorf("expression ran %v past its 20ms deadline", elapsed)
			}
		})
	}
}
