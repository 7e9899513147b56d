package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/detector"
	"repro/internal/mechanism"
	"repro/internal/policy"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/syslevel"
	"repro/internal/workload"
)

// The tentpole end to end: the pipelined shipping path survives a real
// node failure mid-chain and restores correctly — and every EvAck it
// emits is checked for durability AT EVENT TIME, because "ack after
// publish returns" is the one ordering pipelining is most tempted to
// break.
func TestPipelinedAutonomicFailoverAndAckDurability(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 31}
	want := referenceFingerprint(t, prog, 300)

	c := newCluster(t, 4, prog)
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 3}, c.Counters)
	// A 1 MiB full image needs ~25ms on the modeled wire+spindle, so the
	// kill lands at 40ms: after the chain anchor (and a delta or two)
	// acked, while the job is still running.
	failed := false
	c.OnStep(func() {
		if !failed && c.Now() >= simtime.Time(40*simtime.Millisecond) {
			failed = true
			c.Fail(0)
		}
	})

	rem := c.Node(3).Remote()
	sup := MustNewSupervisor(SupervisorConfig{
		C:           c,
		MkMech:      func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:        prog,
		Iterations:  300,
		Policy:      policy.Fixed(1500 * simtime.Microsecond),
		Detector:    mon,
		Incremental: true,
		RebaseEvery: 3,
		ControlNode: 3,
		Pipeline:    &PipelineConfig{},
		OnEvent: func(ev Event) {
			// Acked-durability invariant: the moment an ack is emitted, the
			// object must already be committed on the server. A pipeline
			// that acked at capture (or at transfer start) fails here.
			if ev.Kind == EvAck && ev.Object != "" {
				if _, err := rem.ObjectSize(ev.Object); err != nil {
					t.Errorf("EvAck for %s before it was durable: %v", ev.Object, err)
				}
			}
		},
	})
	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if !sup.Completed {
		t.Fatalf("job did not complete (ckpts=%d restarts=%d counters:\n%s)",
			sup.Checkpoints, sup.Restarts, c.Counters)
	}
	if sup.Fingerprint != want {
		t.Fatalf("fingerprint %#x want %#x", sup.Fingerprint, want)
	}
	if sup.Restarts == 0 {
		t.Fatal("the node failure caused no failover")
	}
	if n := c.Counters.Get("pipe.shipped"); n == 0 {
		t.Fatal("pipelined run shipped nothing through the pipe")
	}
	if snap := sup.Metrics.Hist("pipe.publish_latency").Snapshot(); snap.N == 0 {
		t.Fatal("no publish-latency observations recorded")
	} else if snap.P99 < snap.P50 || snap.P50 <= 0 {
		t.Fatalf("degenerate publish-latency distribution: %s", snap)
	}
	for _, k := range []string{"ckpt.torn", "ckpt.lost", "fence.double_commits"} {
		if n := c.Counters.Get(k); n != 0 {
			t.Fatalf("%s = %d, want 0", k, n)
		}
	}
}

// A publish failure mid-pipeline must drop every queued image (they all
// chain onto the failed one) and force the next capture to re-anchor the
// chain with a full image. White-box: the agent is pumped directly so
// the fault window can be placed exactly.
func TestPipelinedShipFailureDropsChainAndRebases(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 33}
	c := newCluster(t, 2, prog)
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 1}, c.Counters)
	p, err := c.Node(0).K.Spawn(prog.Name())
	if err != nil {
		t.Fatal(err)
	}
	workload.SetIterations(p, 1_000_000) // must outlive the test window

	sup := MustNewSupervisor(SupervisorConfig{
		C:           c,
		MkMech:      func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:        prog,
		Iterations:  1_000_000, // unused: agents are pumped directly, Run never starts
		Policy:      policy.Fixed(500 * simtime.Microsecond),
		Detector:    mon,
		ControlNode: 1,
		Incremental: true,
		RebaseEvery: 100, // one full, then deltas only — until the failure forces a rebase
		Pipeline:    &PipelineConfig{},
	})
	epoch := sup.fence.Advance()
	sup.armAgent(0, p.PID, epoch)
	c.OnStep(sup.pumpAgents)

	// Healthy phase: the chain anchors (full) and grows (delta).
	if !c.RunUntil(func() bool {
		return c.Counters.Get("ckpt.full_acks") >= 1 && c.Counters.Get("ckpt.delta_acks") >= 1
	}, simtime.Second) {
		t.Fatalf("chain never anchored and grew (counters:\n%s)", c.Counters)
	}

	// Break every server write: the next transfer to complete fails its
	// publish, and nothing behind it can ever satisfy the durable-parent
	// rule.
	c.Server.SetFaults(&storage.FaultPolicy{WriteFault: 1, Rng: rand.New(rand.NewSource(7))})
	if !c.RunUntil(func() bool { return c.Counters.Get("agent.ship_failed") >= 1 }, simtime.Second) {
		t.Fatalf("server faults never surfaced as a ship failure (counters:\n%s)", c.Counters)
	}
	if n := c.Counters.Get("pipe.dropped"); n == 0 {
		t.Fatal("ship failure dropped nothing — the dependent queue should die with it")
	}

	// Heal. The next acked image must be a full rebase: the published
	// chain lost its newest links, so a delta chained onto them would be
	// an unreachable orphan.
	fullsBefore := c.Counters.Get("ckpt.full_acks")
	c.Server.SetFaults(nil)
	if !c.RunUntil(func() bool { return c.Counters.Get("ckpt.full_acks") > fullsBefore }, simtime.Second) {
		t.Fatalf("no full-image rebase re-anchored the chain after the failure healed (counters:\n%s)", c.Counters)
	}
}

// The split-brain scenario of TestAutonomicFalseSuspicionIsFencedAndRecovers
// with the pipelined path on: the stale incarnation's queued publishes
// bounce off the fence, it self-fences, and not one double commit leaks
// — the pipeline's deferred publishes get exactly the sync path's safety.
func TestPipelinedFalseSuspicionSelfFences(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 31}
	// Long enough that the job is still running when the stale
	// incarnation's in-flight transfer (~25ms for a 1 MiB full) finally
	// reaches the server and bounces off the fence.
	want := referenceFingerprint(t, prog, 300)

	c := newCluster(t, 4, prog)
	np := c.EnableNetFaults(NetFaultConfig{})
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 3}, c.Counters)
	cut, healed := false, false
	c.OnStep(func() {
		if !cut && c.Now() >= simtime.Time(7*simtime.Millisecond) {
			cut = true
			np.Partition("island", 0)
		}
		if cut && !healed && c.Now() >= simtime.Time(17*simtime.Millisecond) {
			healed = true
			np.Heal("island")
		}
	})

	sup := MustNewSupervisor(SupervisorConfig{
		C:           c,
		MkMech:      func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:        prog,
		Iterations:  300,
		Policy:      policy.Fixed(3 * simtime.Millisecond),
		Detector:    mon,
		ControlNode: 3,
		Pipeline:    &PipelineConfig{},
	})
	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if !sup.Completed {
		t.Fatalf("job did not complete (ckpts=%d restarts=%d counters:\n%s)",
			sup.Checkpoints, sup.Restarts, c.Counters)
	}
	if sup.Fingerprint != want {
		t.Fatalf("fingerprint %#x want %#x", sup.Fingerprint, want)
	}
	if sup.Restarts == 0 {
		t.Fatal("the partition caused no failover")
	}
	if n := c.Counters.Get("fence.suicides"); n == 0 {
		t.Fatal("stale incarnation never self-fenced")
	}
	if n := c.Counters.Get("fence.double_commits"); n != 0 {
		t.Fatalf("fence.double_commits = %d, want 0 (a queued stale publish leaked)", n)
	}
	if sup.OracleReads != 0 {
		t.Fatalf("autonomic supervisor read ground truth %d times", sup.OracleReads)
	}
	if p, err := c.Node(0).K.Procs.Lookup(1); err == nil && p.State == proc.StateRunning {
		t.Fatal("stale process still running after self-fence")
	}
}

// While a big full image crosses the wire, the small deltas captured
// behind it must coalesce into one batched publish instead of queuing a
// message each.
func TestPipelinedDeltaBatching(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 31}
	want := referenceFingerprint(t, prog, 80)

	c := newCluster(t, 2, prog)
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 1}, c.Counters)

	sup := MustNewSupervisor(SupervisorConfig{
		C:           c,
		MkMech:      func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:        prog,
		Iterations:  80,
		Policy:      policy.Fixed(300 * simtime.Microsecond), // captures far faster than a full image ships
		Detector:    mon,
		ControlNode: 1,
		Incremental: true,
		RebaseEvery: 100,
		Pipeline:    &PipelineConfig{MaxInFlight: 4},
	})
	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if !sup.Completed {
		t.Fatalf("job did not complete (ckpts=%d restarts=%d counters:\n%s)",
			sup.Checkpoints, sup.Restarts, c.Counters)
	}
	if sup.Fingerprint != want {
		t.Fatalf("fingerprint %#x want %#x", sup.Fingerprint, want)
	}
	if n := c.Counters.Get("pipe.batched"); n == 0 {
		t.Fatalf("no deltas batched behind the full-image transfer (counters:\n%s)", c.Counters)
	}
	if n := c.Counters.Get("fence.double_commits"); n != 0 {
		t.Fatalf("fence.double_commits = %d, want 0", n)
	}
}
