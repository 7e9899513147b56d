package cluster

import (
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/detector"
	"repro/internal/mechanism"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/syslevel"
	"repro/internal/workload"
)

// goldenRow is one fixed-seed supervisor run whose whole event log is
// pinned by count and FNV-64 hash, its counter snapshot by FNV-64 hash,
// and its ground-truth reads by count.
type goldenRow struct {
	name   string
	run    func(t *testing.T) *Supervisor
	events int
	hash   uint64
	// counters is the FNV-64 of the run's counter snapshot, which sees
	// what the log does not: retries, drops, bytes shipped.
	counters uint64
	// oracleReads is the run's Supervisor.OracleReads: the oracle rows'
	// cost in simulator ground truth, and 0 for every autonomic row.
	oracleReads int
	// reaches names a counter the row exists to drive: a commit branch
	// no other row takes. It must be nonzero, or the row pins nothing.
	reaches string
}

// goldenOracle runs one job on a four-node cluster under a seeded
// failure schedule of workers 0-2, with no detector: the oracle's
// ground truth gives every verdict.
func goldenOracle(t *testing.T, seed int64, mtbf simtime.Duration, mutate func(*SupervisorConfig)) *Supervisor {
	t.Helper()
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: uint64(seed)}
	c := newClusterSeed(t, 4, seed, prog)
	c.SetInjector(NewInjector(Exponential{Mean: mtbf}, 2*simtime.Millisecond, seed, 3))
	cfg := SupervisorConfig{
		C:          c,
		MkMech:     func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:       prog,
		Iterations: 80,
		Policy:     policy.Fixed(2 * simtime.Millisecond),
	}
	mutate(&cfg)
	sup := MustNewSupervisor(cfg)
	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	return sup
}

// goldenAutonomic is goldenOracle with a 2 ms timeout detector
// observed from node 3, which is also the control node.
func goldenAutonomic(t *testing.T, seed int64, mtbf simtime.Duration, mutate func(*SupervisorConfig)) *Supervisor {
	t.Helper()
	return goldenOracle(t, seed, mtbf, func(cfg *SupervisorConfig) {
		cfg.Detector = detector.NewMonitor(cfg.C, detector.NewTimeout(2*simtime.Millisecond),
			detector.Config{Period: 200 * simtime.Microsecond, Observer: 3}, cfg.C.Counters)
		cfg.ControlNode = 3
		mutate(cfg)
	})
}

// goldenNoFencing runs one job with fencing off while a partition of the
// job's first node makes a live incarnation look dead; without the fence
// the stale incarnation's commits land.
func goldenNoFencing(t *testing.T, mutate func(*SupervisorConfig)) *Supervisor {
	t.Helper()
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 31}
	c := newCluster(t, 4, prog)
	np := c.EnableNetFaults(NetFaultConfig{})
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 3}, c.Counters)
	cut := false
	c.OnStep(func() {
		if !cut && c.Now() >= simtime.Time(7*simtime.Millisecond) {
			cut = true
			np.Partition("island", 0)
		}
		if cut && c.Now() >= simtime.Time(17*simtime.Millisecond) {
			np.Heal("island")
		}
	})
	cfg := SupervisorConfig{
		C:           c,
		MkMech:      func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:        prog,
		Iterations:  60,
		Policy:      policy.Fixed(3 * simtime.Millisecond),
		Detector:    mon,
		ControlNode: 3,
		NoFencing:   true,
	}
	mutate(&cfg)
	sup := MustNewSupervisor(cfg)
	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	return sup
}

// goldenRelaunch runs the relaunch scenario and returns its supervisor
// with the number of step hooks the cluster held before the first Run.
func goldenRelaunch(t *testing.T) (sup *Supervisor, hooks int) {
	t.Helper()
	// Node 0 is cut off from the control plane and the job fails
	// over to node 1. Later both workers are cut off, so the next
	// failover finds every spare suspected and Run gives up; the
	// caller relaunches it, as the chaos harness does. The relaunch
	// lands on node 0, whose kernel outlived the first Run.
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 8}
	c := newCluster(t, 3, prog)
	np := c.EnableNetFaults(NetFaultConfig{})
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 2}, c.Counters)
	cuts := []struct {
		at     simtime.Duration
		heal   bool
		island []int
	}{
		{7 * simtime.Millisecond, false, []int{0}},
		{12 * simtime.Millisecond, true, nil},
		{20 * simtime.Millisecond, false, []int{0, 1}},
		{26 * simtime.Millisecond, true, nil},
	}
	c.OnStep(func() {
		if len(cuts) == 0 || c.Now() < simtime.Time(cuts[0].at) {
			return
		}
		if cuts[0].heal {
			np.Heal("island")
		} else {
			np.Partition("island", cuts[0].island...)
		}
		cuts = cuts[1:]
	})
	sup = MustNewSupervisor(SupervisorConfig{
		C:           c,
		MkMech:      func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:        prog,
		Iterations:  60,
		Policy:      policy.Fixed(3 * simtime.Millisecond),
		Detector:    mon,
		ControlNode: 2,
	})
	hooks = len(c.stepHooks)
	relaunches := 0
	err := sup.Run(2 * simtime.Second)
	for ; err != nil && relaunches < 5; relaunches++ {
		c.RunFor(2 * simtime.Millisecond)
		err = sup.Run(2 * simtime.Second)
	}
	if relaunches == 0 {
		t.Fatal("Run never gave up: the row no longer exercises a relaunch")
	}
	return sup, hooks
}

var goldenRows = []goldenRow{
	{name: "eager-full", events: 25, hash: 0xa670aa4ac7cc278c, counters: 0x1d8a1cb73bd732d1, run: func(t *testing.T) *Supervisor {
		return goldenAutonomic(t, 61, 20*simtime.Millisecond, func(*SupervisorConfig) {})
	}},
	{name: "incremental-compact", events: 46, hash: 0x435717a13467cd5f, counters: 0xa421f17cccd4e279, run: func(t *testing.T) *Supervisor {
		return goldenAutonomic(t, 62, 20*simtime.Millisecond, func(cfg *SupervisorConfig) {
			cfg.Incremental = true
			cfg.RebaseEvery = 6
			cfg.CompactAfter = 2
		})
	}},
	{name: "lazy-buddy", events: 29, hash: 0x087e6f1d8bd8d583, counters: 0xcc29e9e34e5024bb, run: func(t *testing.T) *Supervisor {
		// The bench job-failover configuration.
		return goldenAutonomic(t, 63, 15*simtime.Millisecond, func(cfg *SupervisorConfig) {
			cfg.Iterations = 200
			cfg.Policy = policy.YoungDaly(5 * simtime.Millisecond)
			cfg.Incremental = true
			cfg.RebaseEvery = 8
			cfg.CompactAfter = 6
			cfg.LazyRestore = true
			cfg.Replication = &ReplicationConfig{Mode: ReplBuddy}
		})
	}},
	{name: "erasure-2+1", events: 25, hash: 0x7bb3de75e90373cd, counters: 0x12826b52108c0333, run: func(t *testing.T) *Supervisor {
		return goldenAutonomic(t, 64, 20*simtime.Millisecond, func(cfg *SupervisorConfig) {
			cfg.Incremental = true
			cfg.Replication = &ReplicationConfig{Mode: ReplErasure, DataShards: 2, ParityShards: 1}
		})
	}},
	{name: "pipeline", events: 31, hash: 0x484d63affcfeab28, counters: 0x8a1ef4564bd92fc0, run: func(t *testing.T) *Supervisor {
		return goldenAutonomic(t, 65, 120*simtime.Millisecond, func(cfg *SupervisorConfig) {
			cfg.Iterations = 300
			cfg.Policy = policy.Fixed(1500 * simtime.Microsecond)
			cfg.Incremental = true
			cfg.RebaseEvery = 3
			cfg.Pipeline = &PipelineConfig{}
		})
	}},
	{name: "no-fencing", events: 14, hash: 0x35d442e858881c11, counters: 0x87376119972d2cae, run: func(t *testing.T) *Supervisor {
		return goldenNoFencing(t, func(*SupervisorConfig) {})
	}},
	{name: "relaunch", events: 24, hash: 0x38fdbc5e328f412c, counters: 0x0834606bb9f5c57b, run: func(t *testing.T) *Supervisor {
		sup, _ := goldenRelaunch(t)
		return sup
	}},
	// The oracle rows arm the same agents as the autonomic rows; their
	// verdicts come from ground truth, so their OracleReads are nonzero.
	{name: "oracle-remote", events: 28, hash: 0xa67a6166f1d3906a, oracleReads: 36, counters: 0x472bb67b7b1a11dd, run: func(t *testing.T) *Supervisor {
		prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 31}
		c := newCluster(t, 3, prog)
		c.SetInjector(NewInjector(Exponential{Mean: 15 * simtime.Millisecond}, 2*simtime.Millisecond, 7, 3))
		sup := MustNewSupervisor(SupervisorConfig{
			C:          c,
			MkMech:     func() mechanism.Mechanism { return syslevel.NewCRAK() },
			Prog:       prog,
			Iterations: 200,
			Policy:     policy.Fixed(5 * simtime.Millisecond),
		})
		if err := sup.Run(2 * simtime.Second); err != nil {
			t.Fatal(err)
		}
		return sup
	}},
	{name: "oracle-local-permanent", events: 26, hash: 0x0e3b7f05709bc6cf, oracleReads: 46, counters: 0xeda67c231a7d0f8e, run: func(t *testing.T) *Supervisor {
		prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 41}
		c := newCluster(t, 3, prog)
		inj := NewInjector(Exponential{Mean: 30 * simtime.Millisecond}, 2*simtime.Millisecond, 3, 3)
		inj.PermanentFrac = 1.0
		c.SetInjector(inj)
		sup := MustNewSupervisor(SupervisorConfig{
			C:            c,
			MkMech:       func() mechanism.Mechanism { return syslevel.NewCRAK() },
			Prog:         prog,
			Iterations:   400,
			Policy:       policy.Fixed(4 * simtime.Millisecond),
			UseLocalDisk: true,
		})
		// All failures are permanent, so the run may end out of spares;
		// the log up to that point is what is pinned.
		_ = sup.Run(2 * simtime.Second)
		if sup.FromScratch == 0 {
			t.Fatal("no scratch restart: the row no longer exercises the lost-local-disk path")
		}
		return sup
	}},
	// The agent features under the oracle's verdicts: the chain, its
	// compaction, lazy restore and buddy replication.
	{name: "oracle-lazy-buddy", events: 48, hash: 0x43fe16e055f870e9, oracleReads: 98, counters: 0xec4d6d39a0f174b1, run: func(t *testing.T) *Supervisor {
		return goldenOracle(t, 66, 20*simtime.Millisecond, func(cfg *SupervisorConfig) {
			cfg.Incremental = true
			cfg.CompactAfter = 2
			cfg.LazyRestore = true
			cfg.Replication = &ReplicationConfig{Mode: ReplBuddy}
		})
	}},
	// The rows below drive commit branches that the rows above never
	// take: a failed pipelined ship, deferred GC, a failed fold, and a
	// stale pipelined publish that lands.
	{name: "pipeline-faults", reaches: "agent.ship_failed", events: 23, hash: 0xa7906e6830e4a074, counters: 0x877e3f8c674cf266, run: func(t *testing.T) *Supervisor {
		return goldenAutonomic(t, 65, 120*simtime.Millisecond, func(cfg *SupervisorConfig) {
			cfg.C.EnableStorageFaults(StorageFaultConfig{WriteFault: .15, OutageFrac: .3, PublishFault: .1})
			cfg.Iterations = 300
			cfg.Policy = policy.Fixed(1500 * simtime.Microsecond)
			cfg.Incremental = true
			cfg.RebaseEvery = 3
			cfg.Pipeline = &PipelineConfig{MaxInFlight: 4}
		})
	}},
	{name: "buddy-faults", reaches: "ckpt.gc_deferred", events: 121, hash: 0x26d5fc78088b3d2b, counters: 0xc876febaa725f4d1, run: func(t *testing.T) *Supervisor {
		return goldenAutonomic(t, 63, 15*simtime.Millisecond, func(cfg *SupervisorConfig) {
			cfg.C.EnableStorageFaults(StorageFaultConfig{WriteFault: .1, OutageFrac: .5, PublishFault: .1})
			cfg.Iterations = 200
			cfg.Incremental = true
			cfg.RebaseEvery = 4
			cfg.CompactAfter = 3
			cfg.LazyRestore = true
			cfg.Replication = &ReplicationConfig{Mode: ReplBuddy}
		})
	}},
	{name: "compact-faults", reaches: "compact.failed", events: 32, hash: 0xe9eab20ee512c617, counters: 0x1e42854d7f405577, run: func(t *testing.T) *Supervisor {
		return goldenAutonomic(t, 61, 20*simtime.Millisecond, func(cfg *SupervisorConfig) {
			cfg.C.EnableStorageFaults(StorageFaultConfig{PublishFault: .3})
			cfg.Incremental = true
			cfg.CompactAfter = 2
		})
	}},
	{name: "pipeline-no-fencing", reaches: "fence.double_commits", events: 13, hash: 0xc01f39540c70bf22, counters: 0x74be8a1be1f46f76, run: func(t *testing.T) *Supervisor {
		return goldenNoFencing(t, func(cfg *SupervisorConfig) {
			cfg.Iterations = 400
			cfg.Policy = policy.Fixed(1500 * simtime.Microsecond)
			cfg.Pipeline = &PipelineConfig{}
		})
	}},
}

// TestSupervisorEventLogGolden pins the single-job supervisor's event
// log and counters across refactors: each fixed-seed row must reproduce
// the recorded event count, FNV-64 of FormatEvents and FNV-64 of the
// counter snapshot exactly. Every row restarts the job at least once, so
// the restart paths are on the hashed trail.
func TestSupervisorEventLogGolden(t *testing.T) {
	for _, row := range goldenRows {
		t.Run(row.name, func(t *testing.T) {
			sup := row.run(t)
			if sup.Restarts == 0 {
				t.Fatal("no restart: the row no longer exercises a restart path")
			}
			if row.reaches != "" && sup.Counters().Get(row.reaches) == 0 {
				t.Fatalf("%s is 0: the row no longer reaches its commit branch", row.reaches)
			}
			evs := sup.Events
			h := fnv.New64()
			h.Write([]byte(FormatEvents(evs)))
			if len(evs) != row.events || h.Sum64() != row.hash {
				t.Errorf("event log changed: %d events hash %#x, want %d events hash %#x\n%s",
					len(evs), h.Sum64(), row.events, row.hash, tail(FormatEvents(evs), 12))
			}
			ch := fnv.New64()
			ch.Write([]byte(sup.Counters().String()))
			if ch.Sum64() != row.counters {
				t.Errorf("counters changed: hash %#x, want %#x\n%s", ch.Sum64(), row.counters, sup.Counters())
			}
			if sup.OracleReads != row.oracleReads {
				t.Errorf("OracleReads = %d, want %d", sup.OracleReads, row.oracleReads)
			}
		})
	}
}

// tail returns the last n lines of s.
func tail(s string, n int) string {
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
