package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"chatiyp/internal/cypher"
)

func TestAskBatchAnswersInOrder(t *testing.T) {
	p, w := newTestPipeline(t, 0)
	var questions []string
	for _, a := range w.ASes[:6] {
		questions = append(questions, fmt.Sprintf("What is the name of AS%d?", a.ASN))
	}
	out := p.AskBatch(context.Background(), questions, 3)
	if len(out) != len(questions) {
		t.Fatalf("len = %d, want %d", len(out), len(questions))
	}
	for i, ba := range out {
		if ba.Question != questions[i] {
			t.Errorf("result %d out of order: %q", i, ba.Question)
		}
		if ba.Err != nil {
			t.Errorf("question %d: %v", i, ba.Err)
			continue
		}
		if ba.Answer == nil || ba.Answer.Text == "" {
			t.Errorf("question %d: empty answer", i)
		}
	}
	if got := p.Metrics().Snapshot()["pipeline.ask_batch"]; got < 1 {
		t.Errorf("pipeline.ask_batch = %d", got)
	}
}

func TestAskBatchCanceledContext(t *testing.T) {
	p, w := newTestPipeline(t, 0)
	var questions []string
	for i := 0; i < 8; i++ {
		questions = append(questions, fmt.Sprintf("What is the name of AS%d?", w.ASes[i%len(w.ASes)].ASN))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := p.AskBatch(ctx, questions, 2)
	for i, ba := range out {
		if ba.Err == nil {
			t.Errorf("question %d: err = nil, want cancellation error", i)
		}
		if ba.Question == "" {
			t.Errorf("question %d: question not recorded", i)
		}
	}
}

func TestAskBatchWorkerDefaults(t *testing.T) {
	p, w := newTestPipeline(t, 0)
	q := fmt.Sprintf("What is the name of AS%d?", w.ASes[0].ASN)
	// workers <= 0 and workers > len(questions) must both behave.
	for _, workers := range []int{0, 16} {
		out := p.AskBatch(context.Background(), []string{q}, workers)
		if len(out) != 1 || out[0].Err != nil {
			t.Fatalf("workers=%d: %+v", workers, out)
		}
	}
	if out := p.AskBatch(context.Background(), nil, 4); len(out) != 0 {
		t.Fatalf("empty batch returned %d results", len(out))
	}
}

func TestQueryContextCancellation(t *testing.T) {
	p, _ := newTestPipeline(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.QueryContext(ctx, "MATCH (a:AS) MATCH (b:AS) MATCH (c:AS) RETURN count(*)", nil)
	if !errors.Is(err, cypher.ErrCanceled) {
		t.Fatalf("err = %v, want cypher.ErrCanceled", err)
	}
	// The deprecated wrapper still executes (uncancelable).
	res, err := p.QueryContext(context.Background(), "MATCH (a:AS) RETURN count(a)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Value(); !ok {
		t.Fatal("count query did not return a single value")
	}
}

func TestQueryLimitedContextDeadline(t *testing.T) {
	p, _ := newTestPipeline(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err := p.QueryLimitedContext(ctx, "MATCH (a:AS) MATCH (b:AS) RETURN count(*)", nil, 10)
	if !errors.Is(err, cypher.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

// TestAskCanceledDoesNotFallBack pins the cancellation-vs-fallback
// boundary: a canceled ask must error out, not silently degrade to
// vector retrieval.
func TestAskCanceledDoesNotFallBack(t *testing.T) {
	p, w := newTestPipeline(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ans, err := p.Ask(ctx, fmt.Sprintf("What is the name of AS%d?", w.ASes[0].ASN))
	if err == nil {
		t.Fatalf("Ask returned %+v, want error", ans)
	}
	// One identity regardless of which stage the abort surfaced in —
	// here the LLM call itself, which returns a raw ctx error that Ask
	// must normalize onto ErrCanceled.
	if !errors.Is(err, cypher.ErrCanceled) {
		t.Fatalf("err = %v, want to match cypher.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to unwrap context.Canceled", err)
	}
}

func TestMetricsMirrorCancelCounters(t *testing.T) {
	p, _ := newTestPipeline(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _ = p.QueryContext(ctx, "MATCH (a:AS) MATCH (b:AS) RETURN count(*)", nil)
	snap := p.Metrics().Snapshot()
	if snap["cypher.canceled"] < 1 {
		t.Errorf("cypher.canceled = %d, want >= 1", snap["cypher.canceled"])
	}
}

func TestAskBatchCanceledEntriesMatchErrCanceled(t *testing.T) {
	p, w := newTestPipeline(t, 0)
	questions := make([]string, 6)
	for i := range questions {
		questions[i] = fmt.Sprintf("What is the name of AS%d?", w.ASes[i%len(w.ASes)].ASN)
	}
	before, _ := cypher.CancelStats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, ba := range p.AskBatch(ctx, questions, 2) {
		if !errors.Is(ba.Err, cypher.ErrCanceled) {
			t.Errorf("entry %d: err = %v, want to match cypher.ErrCanceled", i, ba.Err)
		}
		if !errors.Is(ba.Err, context.Canceled) {
			t.Errorf("entry %d: err = %v, want to unwrap context.Canceled", i, ba.Err)
		}
	}
	// Unstarted entries must not move the engine's cancel counters.
	if after, _ := cypher.CancelStats(); after != before {
		t.Errorf("cancel counter moved %d -> %d on unstarted entries", before, after)
	}
}
