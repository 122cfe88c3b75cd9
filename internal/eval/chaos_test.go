package eval

import (
	"context"
	"testing"

	"chatiyp/internal/cyphereval"
	"chatiyp/internal/iyp"
)

func chaosExperiment(t testing.TB) *Experiment {
	t.Helper()
	cfg := DefaultExperimentConfig()
	cfg.Dataset = iyp.SmallConfig()
	gen := cyphereval.DefaultGenConfig()
	gen.PerTemplate = 1
	cfg.Gen = gen
	exp, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// TestChaosReplayContract runs the full four-phase replay and checks
// the resilience contract holds end to end: zero failures in every
// phase, every outage answer degraded, the breaker provably opened,
// and recovery reclosed it and restored full fidelity.
func TestChaosReplayContract(t *testing.T) {
	exp := chaosExperiment(t)
	rep, err := RunChaos(context.Background(), exp, ChaosConfig{Questions: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 4 {
		t.Fatalf("phases = %d, want 4", len(rep.Phases))
	}
	for _, p := range rep.Phases {
		if p.Failed > 0 {
			t.Errorf("phase %s: %d failed answers, want 0", p.Name, p.Failed)
		}
	}
	healthy, outage, recovery := rep.Phases[0], rep.Phases[2], rep.Phases[3]
	if healthy.OK != healthy.Total {
		t.Errorf("healthy phase: ok=%d of %d", healthy.OK, healthy.Total)
	}
	if outage.Degraded != outage.Total {
		t.Errorf("outage phase: degraded=%d of %d, want all", outage.Degraded, outage.Total)
	}
	if rep.BreakerOpens == 0 {
		t.Error("breaker never opened during the outage")
	}
	for task, st := range recovery.Breakers {
		if st == "open" {
			t.Errorf("breaker %s still open after recovery", task)
		}
	}
	// The breakers on the per-ask tasks must have fully reclosed.
	for _, task := range []string{"text2cypher", "answer"} {
		if st := recovery.Breakers[task]; st != "closed" {
			t.Errorf("breaker %s = %q after recovery, want closed", task, st)
		}
	}
	if recovery.OK == 0 {
		t.Error("no full-fidelity answer after recovery")
	}
	if av := rep.Availability(); av != 100 {
		t.Errorf("availability = %.1f%%, want 100%%", av)
	}
	if !rep.Passed() {
		t.Errorf("contract not passed:\n%s", rep.Render())
	}
}

// TestChaosReplayDeterministic: the same seed replays the same fault
// sequence, so two runs agree phase by phase.
func TestChaosReplayDeterministic(t *testing.T) {
	exp := chaosExperiment(t)
	a, err := RunChaos(context.Background(), exp, ChaosConfig{Seed: 42, Questions: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(context.Background(), exp, ChaosConfig{Seed: 42, Questions: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Phases {
		pa, pb := a.Phases[i], b.Phases[i]
		if pa.OK != pb.OK || pa.Degraded != pb.Degraded || pa.Failed != pb.Failed {
			t.Errorf("phase %s diverged: %+v vs %+v", pa.Name, pa, pb)
		}
	}
}

// BenchmarkChaosReplay times one full replay and reports its contract
// metrics; it fails when the contract does.
func BenchmarkChaosReplay(b *testing.B) {
	exp := chaosExperiment(b)
	for i := 0; i < b.N; i++ {
		rep, err := RunChaos(context.Background(), exp, ChaosConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed() {
			b.Fatalf("resilience contract failed:\n%s", rep.Render())
		}
		b.ReportMetric(rep.Availability(), "availability_pct")
		b.ReportMetric(float64(rep.BreakerOpens), "breaker_opens")
		b.ReportMetric(float64(rep.DegradedAnswers), "degraded_answers")
		b.ReportMetric(float64(rep.Retries), "llm_retries")
	}
}
