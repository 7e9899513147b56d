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
	if sup.Policy.Estimator() == nil {
		t.Error("Estimator not defaulted")
	}
	if sup.fence == nil {
		t.Error("fence domain not created")
	}
	if sup.Counters() != c.Counters {
		t.Error("Counters should default to the cluster's shared set")
	}
	if sup.Metrics == nil || sup.Metrics.Counters != sup.Counters() {
		t.Error("Metrics should default to a bundle sharing the supervisor's counters")
	}
	if sup.restoreWorkers != 1 {
		t.Errorf("restoreWorkers = %d, want 1 without a pipeline", sup.restoreWorkers)
	}
	if sup.RebaseEvery != 8 {
		t.Errorf("RebaseEvery = %d, want default 8", sup.RebaseEvery)
	}
}

// TestNewSupervisorPreservesExplicitChoices: defaults must not stomp
// deliberate values.
func TestNewSupervisorPreservesExplicitChoices(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 1}
	c := newCluster(t, 2, prog)
	cfg := validConfig(c, prog)
	cfg.RebaseEvery = 2
	sup, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
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
		{"control node high", func(cfg *SupervisorConfig) { cfg.ControlNode = 2 }, "ControlNode"},
		{"control node negative", func(cfg *SupervisorConfig) { cfg.ControlNode = -1 }, "ControlNode"},
		{"negative rebase", func(cfg *SupervisorConfig) { cfg.RebaseEvery = -1 }, "RebaseEvery"},
		{"pipeline negative in-flight", func(cfg *SupervisorConfig) {
			cfg.Pipeline = &PipelineConfig{MaxInFlight: -1}
		}, "MaxInFlight"},
		{"pipeline negative workers", func(cfg *SupervisorConfig) {
			cfg.Pipeline = &PipelineConfig{CaptureWorkers: -2}
		}, "CaptureWorkers"},
		{"local fallback with incremental", func(cfg *SupervisorConfig) {
			cfg.LocalFallback, cfg.Incremental = true, true
		}, "LocalFallback"},
		{"local disk with replication", func(cfg *SupervisorConfig) {
			cfg.UseLocalDisk, cfg.Replication = true, &ReplicationConfig{Mode: ReplBuddy}
		}, "UseLocalDisk"},
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

// TestOracleRunsAgentFeatures: the oracle arms the same checkpoint agent
// as autonomic mode, so every agent feature runs under it too, and the
// job still ends with the fault-free answer.
func TestOracleRunsAgentFeatures(t *testing.T) {
	cases := []struct {
		name   string
		mtbf   simtime.Duration
		mutate func(*SupervisorConfig)
	}{
		{"incremental-compact-lazy-buddy", 20 * simtime.Millisecond, func(cfg *SupervisorConfig) {
			cfg.Incremental = true
			cfg.CompactAfter = 2
			cfg.LazyRestore = true
			cfg.Replication = &ReplicationConfig{Mode: ReplBuddy}
		}},
		{"pipeline", 120 * simtime.Millisecond, func(cfg *SupervisorConfig) {
			cfg.Iterations = 300
			cfg.Policy = policy.Fixed(1500 * simtime.Microsecond)
			cfg.Incremental = true
			cfg.RebaseEvery = 3
			cfg.Pipeline = &PipelineConfig{}
		}},
		{"no-fencing", 20 * simtime.Millisecond, func(cfg *SupervisorConfig) { cfg.NoFencing = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sup := goldenOracle(t, 66, tc.mtbf, tc.mutate)
			want := referenceFingerprint(t, sup.Prog.(workload.Sparse), sup.Iterations)
			if !sup.Completed || sup.Fingerprint != want {
				t.Fatalf("completed %v fingerprint %#x, want %#x", sup.Completed, sup.Fingerprint, want)
			}
			if sup.Restarts == 0 || sup.Checkpoints == 0 {
				t.Fatalf("restarts %d checkpoints %d: the run restores no checkpoint", sup.Restarts, sup.Checkpoints)
			}
			if sup.OracleReads == 0 {
				t.Fatal("OracleReads = 0: the run took no oracle verdict")
			}
		})
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
}
