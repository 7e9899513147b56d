package cluster

import (
	"testing"

	"repro/internal/detector"
	"repro/internal/mechanism"
	"repro/internal/policy"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/syslevel"
	"repro/internal/workload"
)

// referenceFingerprint runs the workload to completion on a pristine
// single node and returns its result fingerprint.
func referenceFingerprint(t *testing.T, prog workload.Sparse, iters uint64) uint64 {
	t.Helper()
	c := newCluster(t, 1, prog)
	p, err := c.Node(0).K.Spawn(prog.Name())
	if err != nil {
		t.Fatal(err)
	}
	workload.SetIterations(p, iters)
	if !c.RunUntil(func() bool { return p.State == proc.StateZombie }, simtime.Minute) {
		t.Fatal("reference run did not complete")
	}
	return workload.Fingerprint(p)
}

// The headline scenario: a network partition makes the job's node LOOK
// dead. The detector (rightly, given its evidence) suspects it, the
// supervisor fails over, and the partitioned incarnation keeps running —
// a split brain. Fencing must (a) reject every commit attempt by the
// stale incarnation and (b) let the job finish correctly anyway. The
// supervisor's decision path reads no simulator ground truth at all.
func TestAutonomicFalseSuspicionIsFencedAndRecovers(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 31}
	want := referenceFingerprint(t, prog, 60)

	c := newCluster(t, 4, prog)
	np := c.EnableNetFaults(NetFaultConfig{})
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 3}, c.Counters)

	// Cut node 0 (where the job starts) off from the control plane for
	// 10ms mid-run; the node itself never fails. Storage is dual-homed,
	// so the stale incarnation can still reach the checkpoint server —
	// the worst case for split brain.
	cutAt := simtime.Time(7 * simtime.Millisecond)
	healAt := simtime.Time(17 * simtime.Millisecond)
	cut, healed := false, false
	c.OnStep(func() {
		if !cut && c.Now() >= cutAt {
			cut = true
			np.Partition("island", 0)
		}
		if cut && !healed && c.Now() >= healAt {
			healed = true
			np.Heal("island")
		}
	})

	sup := MustNewSupervisor(SupervisorConfig{
		C:           c,
		MkMech:      func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:        prog,
		Iterations:  60,
		Policy:      policy.Fixed(3 * simtime.Millisecond),
		Detector:    mon,
		ControlNode: 3,
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
		t.Fatal("the partition caused no failover — scenario did not exercise recovery")
	}
	if n := c.Counters.Get("det.false_positives"); n == 0 {
		t.Fatal("no false positive was recorded (node 0 never died)")
	}
	if n := c.Counters.Get("det.wasted_restarts"); n == 0 {
		t.Fatal("failover of a live node was not counted as wasted")
	}
	if n := c.Counters.Get("fence.rejected"); n == 0 {
		t.Fatal("the stale incarnation never hit the fence")
	}
	if n := c.Counters.Get("fence.double_commits"); n != 0 {
		t.Fatalf("fence.double_commits = %d, want 0 (split brain leaked a commit)", n)
	}
	if sup.OracleReads != 0 {
		t.Fatalf("autonomic supervisor read ground truth %d times", sup.OracleReads)
	}
	// The partitioned process was told by the storage server that it had
	// been superseded and killed itself.
	if n := c.Counters.Get("fence.suicides"); n == 0 {
		t.Fatal("stale incarnation never self-fenced")
	}
	if p, err := c.Node(0).K.Procs.Lookup(1); err == nil && p.State == proc.StateRunning {
		t.Fatal("stale process still running after self-fence")
	}
}

// The same split-brain scenario with fencing disabled: the stale
// incarnation's commits land, and the double-commit counter exposes it.
// This is the contrast that proves the fence is what provides the safety
// in the test above.
func TestAutonomicNoFencingLeaksDoubleCommits(t *testing.T) {
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
	sup := MustNewSupervisor(SupervisorConfig{
		C:           c,
		MkMech:      func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:        prog,
		Iterations:  60,
		Policy:      policy.Fixed(3 * simtime.Millisecond),
		Detector:    mon,
		ControlNode: 3,
		NoFencing:   true,
	})
	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if n := c.Counters.Get("fence.double_commits"); n == 0 {
		t.Fatal("no double commit observed with fencing disabled — contrast lost its teeth")
	}
	if n := c.Counters.Get("fence.rejected"); n != 0 {
		t.Fatalf("fence.rejected = %d with fencing disabled", n)
	}
}

// Phi-accrual under 5% heartbeat loss and real (transient) failures:
// the job completes with the right answer, zero split-brain commits, and
// a supervisor that never consulted the oracle.
func TestAutonomicPhiUnderLossAndRealFailures(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 31}
	want := referenceFingerprint(t, prog, 60)

	c := newCluster(t, 4, prog)
	c.EnableNetFaults(NetFaultConfig{Loss: 0.05, DelayJitter: 100 * simtime.Microsecond})
	period := 200 * simtime.Microsecond
	mon := detector.NewMonitor(c, detector.NewPhiAccrual(8, 64, period/2),
		detector.Config{Period: period, Observer: 3}, c.Counters)
	// Real failures on the worker nodes only (the control node stays up;
	// a failing observer is a different experiment).
	inj := NewInjector(Exponential{Mean: 25 * simtime.Millisecond}, 2*simtime.Millisecond, 7, 3)
	c.SetInjector(inj)

	sup := MustNewSupervisor(SupervisorConfig{
		C:           c,
		MkMech:      func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:        prog,
		Iterations:  60,
		Policy:      policy.Fixed(3 * simtime.Millisecond),
		Detector:    mon,
		ControlNode: 3,
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
	if n := c.Counters.Get("fence.double_commits"); n != 0 {
		t.Fatalf("fence.double_commits = %d, want 0", n)
	}
	if sup.OracleReads != 0 {
		t.Fatalf("autonomic supervisor read ground truth %d times", sup.OracleReads)
	}
	if n := c.Counters.Get("det.detections"); n == 0 {
		t.Fatal("real failures occurred but none was detected")
	}
}

// A relaunched Run must not register the supervisor's step hook again:
// each extra copy would pump the agents, the lazy prefetcher and the
// repair sweep once more per cluster step.
func TestRelaunchRegistersOneStepHook(t *testing.T) {
	sup, before := goldenRelaunch(t)
	if added := len(sup.C.stepHooks) - before; added != 1 {
		t.Fatalf("Run and its relaunches added %d step hooks, want 1", added)
	}
}

// A relaunched Run keeps the supervisor's mechanism pool. The relaunch
// lands on node 0, whose kernel outlived the first Run: a fresh CRAK
// instance would find its module already loaded, stay unbound and fail
// every capture there, so the relaunched incarnation must ack one.
func TestRelaunchCapturesOnSurvivingKernel(t *testing.T) {
	sup, _ := goldenRelaunch(t)
	last := -1
	for i, ev := range sup.Events {
		if ev.Kind == EvAdmit {
			last = i
		}
	}
	admit := sup.Events[last]
	for _, ev := range sup.Events[last:] {
		if ev.Kind == EvAck && ev.Epoch == admit.Epoch {
			return
		}
	}
	t.Fatalf("no ack after the relaunched %v (agent.ckpt_failed = %d)\n%s",
		admit, sup.Counters().Get("agent.ckpt_failed"), tail(FormatEvents(sup.Events), 6))
}
