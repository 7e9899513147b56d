package cluster

import (
	"testing"

	"repro/internal/mechanism"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/syslevel"
	"repro/internal/workload"
)

// TestPolicyTelemetrySingleObservation is the telemetry audit for the
// policy engine: the `policy.interval` histogram must hold exactly one
// observation per recompute (recomputes happen on observation events —
// failures and acked captures — never per agent pump tick), and the
// `policy.work_lost` histogram exactly one observation per observed
// failure. A per-tick leak would show up as orders of magnitude more
// samples than recomputes, since the pump runs on every cluster step.
func TestPolicyTelemetrySingleObservation(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 5}
	c := newClusterSeed(t, 3, 42, prog)
	c.SetInjector(NewInjector(Exponential{Mean: 15 * simtime.Millisecond}, 2*simtime.Millisecond, 9, 2))
	sup := MustNewSupervisor(SupervisorConfig{
		C:          c,
		MkMech:     func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:       prog,
		Iterations: 60,
		Policy:     policy.YoungDaly(5 * simtime.Millisecond),
	})
	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if !sup.Completed {
		t.Fatal("job did not complete")
	}

	failures := sup.Policy.Estimator().Failures()
	if failures == 0 {
		t.Fatal("injector produced no failures; the audit needs observation events")
	}
	if sup.Checkpoints == 0 {
		t.Fatal("no checkpoints were taken")
	}

	ivN := sup.Metrics.Hist("policy.interval").N()
	if ivN != sup.Policy.Recomputes() {
		t.Errorf("policy.interval observations = %d, want one per recompute (%d)",
			ivN, sup.Policy.Recomputes())
	}
	if ivN == 0 {
		t.Error("policy.interval never observed despite failures and captures")
	}
	// Every recompute is an observation event: a failure or an acked
	// capture. Anything beyond that sum means something ticked the
	// histogram outside the event discipline.
	if maxEvents := failures + sup.Checkpoints; ivN > maxEvents {
		t.Errorf("policy.interval observations = %d exceed observation events (%d failures + %d ckpts)",
			ivN, failures, sup.Checkpoints)
	}

	if wlN := sup.Metrics.Hist("policy.work_lost").N(); wlN != failures {
		t.Errorf("policy.work_lost observations = %d, want one per failure (%d)", wlN, failures)
	}

	if got := c.Counters.Get("policy.recompute"); got != int64(sup.Policy.Recomputes()) {
		t.Errorf("policy.recompute counter = %d, want %d", got, sup.Policy.Recomputes())
	}

	// The cadence actually moved off the base once failures were
	// measured: MTBF here (~15ms) with ms-scale capture costs puts the
	// Young optimum well below the 5ms base.
	if sup.Policy.Interval() == sup.Policy.Base() && sup.Policy.Recomputes() > 0 && failures > 1 {
		t.Logf("note: live cadence %v still at base after %d recomputes", sup.Policy.Interval(), sup.Policy.Recomputes())
	}
}
