package chatiyp

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"chatiyp/internal/iyp"
)

func smallSystem(t testing.TB) *System {
	t.Helper()
	sys, err := New(Options{Dataset: iyp.SmallConfig(), Perfect: true})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewAndAsk(t *testing.T) {
	sys := smallSystem(t)
	w := sys.World()
	ans, err := sys.Ask(context.Background(), fmt.Sprintf("What is the name of AS%d?", w.ASes[0].ASN))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans.Text, w.ASes[0].Name) {
		t.Errorf("answer = %q", ans.Text)
	}
}

func TestQueryFacade(t *testing.T) {
	sys := smallSystem(t)
	res, err := sys.QueryContext(context.Background(), "MATCH (a:AS) RETURN count(a)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Value(); !ok || v != int64(len(sys.World().ASes)) {
		t.Errorf("count = %v", v)
	}
}

func TestSnapshotRoundTripThroughFacade(t *testing.T) {
	sys := smallSystem(t)
	path := t.TempDir() + "/iyp.graph"
	if err := sys.SaveGraph(path); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	sys2, err := FromGraph(g, nil, Options{Perfect: true})
	if err != nil {
		t.Fatal(err)
	}
	w := sys.World()
	ans, err := sys2.Ask(context.Background(), fmt.Sprintf("In which country is AS%d registered?", w.ASes[0].ASN))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans.Text, w.ASes[0].Country.Code) {
		t.Errorf("restored-system answer = %q, want country %s", ans.Text, w.ASes[0].Country.Code)
	}
}

func TestHTTPHandlerFacade(t *testing.T) {
	sys := smallSystem(t)
	h, err := sys.HTTPHandler()
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("health status = %d", rec.Code)
	}
}

func TestBenchmarkAndEvaluateFacade(t *testing.T) {
	sys, err := New(Options{Dataset: iyp.SmallConfig()}) // realistic error model
	if err != nil {
		t.Fatal(err)
	}
	bench, err := sys.GenerateBenchmark(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Questions) < 36 {
		t.Fatalf("benchmark = %d questions", len(bench.Questions))
	}
	rep, err := sys.Evaluate(context.Background(), bench)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != len(bench.Questions) {
		t.Errorf("records = %d", len(rep.Records))
	}
}

// TestExplainFollowsPipelineOptions: Explain plans with the options the
// pipeline executes with, so a pipeline pinned to one worker never
// prints a parallel scan it would not run.
func TestExplainFollowsPipelineOptions(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sys := smallSystem(t)
	const scan = "MATCH (p:Prefix) RETURN count(p)"
	plan, err := sys.Explain(scan)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "parallel scan") {
		t.Fatalf("at GOMAXPROCS 2 the prefix scan should plan parallel:\n%s", plan)
	}
	sys.Pipeline().SetMaxParallelism(1)
	if plan, err = sys.Explain(scan); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "parallel scan") {
		t.Errorf("pipeline pinned to one worker, yet Explain prints a parallel scan:\n%s", plan)
	}
}

func TestSchemaText(t *testing.T) {
	if !strings.Contains(SchemaText(), "POPULATION") {
		t.Error("schema text incomplete")
	}
}

func TestOptionsVariants(t *testing.T) {
	// Error-scaled and ablated systems must construct fine.
	for _, opts := range []Options{
		{Dataset: iyp.SmallConfig(), ErrorScale: 2.0},
		{Dataset: iyp.SmallConfig(), DisableVectorFallback: true},
		{Dataset: iyp.SmallConfig(), DisableReranker: true, Seed: 7},
	} {
		if _, err := New(opts); err != nil {
			t.Errorf("New(%+v): %v", opts, err)
		}
	}
}

func TestAskBatchFacade(t *testing.T) {
	sys := smallSystem(t)
	w := sys.World()
	questions := []string{
		fmt.Sprintf("What is the name of AS%d?", w.ASes[0].ASN),
		fmt.Sprintf("What is the name of AS%d?", w.ASes[1].ASN),
		fmt.Sprintf("What is the name of AS%d?", w.ASes[2].ASN),
	}
	out := sys.AskBatch(context.Background(), questions, 2)
	if len(out) != 3 {
		t.Fatalf("results = %d", len(out))
	}
	for i, ba := range out {
		if ba.Err != nil {
			t.Fatalf("question %d: %v", i, ba.Err)
		}
		if !strings.Contains(ba.Answer.Text, sys.World().ASes[i].Name) {
			t.Errorf("question %d: answer = %q", i, ba.Answer.Text)
		}
	}
}

func TestQueryContextFacade(t *testing.T) {
	sys := smallSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sys.QueryContext(ctx, "MATCH (a:AS) MATCH (b:AS) RETURN count(*)", nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	res, err := sys.QueryContext(context.Background(), "MATCH (a:AS) RETURN count(a)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Value(); !ok {
		t.Fatal("no value")
	}
}

func TestQueryStreamFacade(t *testing.T) {
	sys := smallSystem(t)
	st, err := sys.QueryStream(context.Background(), "MATCH (a:AS) RETURN a.asn", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if cols := st.Columns(); len(cols) != 1 || cols[0] != "a.asn" {
		t.Fatalf("columns = %v", cols)
	}
	var n int
	for {
		_, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	res, err := sys.QueryContext(context.Background(), "MATCH (a:AS) RETURN count(a)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Value(); v != int64(n) {
		t.Fatalf("streamed %d rows, count(a) = %v", n, v)
	}
}
