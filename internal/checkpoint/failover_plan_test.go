package checkpoint_test

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/detector"
	"repro/internal/mechanism"
	"repro/internal/policy"
	"repro/internal/simos/kernel"
	"repro/internal/simtime"
	"repro/internal/syslevel"
	"repro/internal/workload"
)

// TestEagerFailoverPlansChainOnce: an eager failover plans its chain
// once. The restore's post-pruning byte count comes back on the
// restored process, so recording the restore latency plans nothing.
func TestEagerFailoverPlansChainOnce(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 31}
	reg := kernel.NewRegistry()
	reg.MustRegister(prog)
	c := cluster.New(cluster.Config{Nodes: 4, Seed: 1, KernelCfg: kernel.DefaultConfig("")},
		costmodel.Default2005(), reg)
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 3}, c.Counters)
	failed := false
	c.OnStep(func() {
		if !failed && c.Now() >= simtime.Time(6*simtime.Millisecond) {
			failed = true
			c.Fail(0)
		}
	})
	sup := cluster.MustNewSupervisor(cluster.SupervisorConfig{
		C:           c,
		MkMech:      func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:        prog,
		Iterations:  60,
		Policy:      policy.Fixed(1500 * simtime.Microsecond),
		Detector:    mon,
		ControlNode: 3,
		Incremental: true,
		RebaseEvery: 3,
	})
	plans := 0
	stop := checkpoint.CountPlans(&plans)
	err := sup.Run(2 * simtime.Second)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	restores := 0
	for _, ev := range sup.Events {
		if ev.Kind == cluster.EvRestore {
			restores++
		}
	}
	if restores == 0 || !sup.Completed {
		t.Fatalf("the run made %d chain restores and completed %v; want a failover from a chain", restores, sup.Completed)
	}
	if plans != restores {
		t.Fatalf("%d eager failovers planned %d chains, want one plan each", restores, plans)
	}
}
