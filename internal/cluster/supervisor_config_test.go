package cluster

import (
	"strings"
	"testing"

	"repro/internal/mechanism"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/syslevel"
	"repro/internal/workload"
)

func validConfig(c *Cluster, prog workload.Sparse) SupervisorConfig {
	return SupervisorConfig{
		C:          c,
		MkMech:     func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:       prog,
		Iterations: 10,
		Policy:     policy.Fixed(simtime.Millisecond),
	}
}

func TestNewSupervisorDefaults(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 1}
	c := newCluster(t, 2, prog)
	sup, err := NewSupervisor(validConfig(c, prog))
	if err != nil {
		t.Fatal(err)
	}
	if sup.Estimator == nil {
		t.Error("Estimator not defaulted")
	}
	if sup.Counters != c.Counters {
		t.Error("Counters should default to the cluster's shared set")
	}
	if sup.Metrics == nil || sup.Metrics.Counters != sup.Counters {
		t.Error("Metrics should default to a bundle sharing the supervisor's counters")
	}
	if sup.MaxRetries != 3 {
		t.Errorf("MaxRetries = %d, want default 3", sup.MaxRetries)
	}
	if sup.RetryBackoff != simtime.Millisecond {
		t.Errorf("RetryBackoff = %v, want default 1ms", sup.RetryBackoff)
	}
	if sup.RebaseEvery != 8 {
		t.Errorf("RebaseEvery = %d, want default 8", sup.RebaseEvery)
	}
}

// TestNewSupervisorPreservesExplicitChoices: defaults must not stomp
// deliberate values, including "negative disables retries".
func TestNewSupervisorPreservesExplicitChoices(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 1}
	c := newCluster(t, 2, prog)
	cfg := validConfig(c, prog)
	cfg.MaxRetries = -1
	cfg.RetryBackoff = 7 * simtime.Millisecond
	cfg.RebaseEvery = 2
	sup, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sup.MaxRetries != -1 {
		t.Errorf("MaxRetries = %d, want -1 (retries disabled)", sup.MaxRetries)
	}
	if sup.RetryBackoff != 7*simtime.Millisecond {
		t.Errorf("RetryBackoff = %v, want 7ms", sup.RetryBackoff)
	}
	if sup.RebaseEvery != 2 {
		t.Errorf("RebaseEvery = %d, want 2", sup.RebaseEvery)
	}
}

func TestNewSupervisorRejectsInvalidConfigs(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 1}
	c := newCluster(t, 2, prog)
	cases := []struct {
		name   string
		mutate func(*SupervisorConfig)
		want   string
	}{
		{"nil cluster", func(cfg *SupervisorConfig) { cfg.C = nil }, "nil Cluster"},
		{"nil mkmech", func(cfg *SupervisorConfig) { cfg.MkMech = nil }, "nil MkMech"},
		{"nil prog", func(cfg *SupervisorConfig) { cfg.Prog = nil }, "nil Prog"},
		{"zero iterations", func(cfg *SupervisorConfig) { cfg.Iterations = 0 }, "zero Iterations"},
		{"no policy at all", func(cfg *SupervisorConfig) { cfg.Policy = policy.Spec{} }, "interval"},
		{"negative interval", func(cfg *SupervisorConfig) {
			cfg.Policy = policy.Fixed(-simtime.Millisecond)
		}, "interval"},
		{"zero policy interval", func(cfg *SupervisorConfig) {
			cfg.Policy = policy.Spec{Strategy: policy.StrategyYoungDaly}
		}, "interval"},
		{"unknown strategy", func(cfg *SupervisorConfig) {
			cfg.Policy = policy.Spec{Strategy: "sometimes", Interval: simtime.Millisecond}
		}, "unknown strategy"},
		{"inverted clamp", func(cfg *SupervisorConfig) {
			cfg.Policy = policy.Spec{
				Strategy:    policy.StrategyYoungDaly,
				Interval:    simtime.Millisecond,
				MinInterval: 4 * simtime.Millisecond,
				MaxInterval: 2 * simtime.Millisecond,
			}
		}, "min interval exceeds max"},
		{"control node high", func(cfg *SupervisorConfig) { cfg.ControlNode = 2 }, "ControlNode"},
		{"control node negative", func(cfg *SupervisorConfig) { cfg.ControlNode = -1 }, "ControlNode"},
		{"negative rebase", func(cfg *SupervisorConfig) { cfg.RebaseEvery = -1 }, "RebaseEvery"},
		{"pipeline without detector", func(cfg *SupervisorConfig) {
			cfg.Pipeline = &PipelineConfig{}
		}, "Detector"},
		{"pipeline negative in-flight", func(cfg *SupervisorConfig) {
			cfg.Pipeline = &PipelineConfig{MaxInFlight: -1}
		}, "MaxInFlight"},
		{"pipeline negative workers", func(cfg *SupervisorConfig) {
			cfg.Pipeline = &PipelineConfig{CaptureWorkers: -2}
		}, "CaptureWorkers"},
	}
	for _, tc := range cases {
		cfg := validConfig(c, prog)
		tc.mutate(&cfg)
		if _, err := NewSupervisor(cfg); err == nil {
			t.Errorf("%s: no error", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestMustNewSupervisorPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewSupervisor did not panic on an invalid config")
		}
	}()
	MustNewSupervisor(SupervisorConfig{})
}

func TestPipelineConfigDefaults(t *testing.T) {
	pc := &PipelineConfig{}
	if got := pc.maxInFlight(); got != 2 {
		t.Errorf("maxInFlight = %d, want 2", got)
	}
	if got := pc.captureWorkers(); got != 4 {
		t.Errorf("captureWorkers = %d, want 4", got)
	}
	if got := pc.batchBytes(); got != 1<<20 {
		t.Errorf("batchBytes = %d, want 1MiB", got)
	}
	disabled := &PipelineConfig{BatchBytes: -1}
	if got := disabled.batchBytes(); got != 0 {
		t.Errorf("batchBytes(-1) = %d, want 0 (disabled)", got)
	}
}
