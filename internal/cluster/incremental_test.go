package cluster

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/detector"
	"repro/internal/mechanism"
	"repro/internal/policy"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/syslevel"
	"repro/internal/workload"
)

// The tentpole end to end: with incremental shipping on, the autonomic
// supervisor survives a real node failure, restores by chain replay, and
// its garbage collection retires exactly the objects no recovery pointer
// can reach — the live chain stays intact on the server.
func TestAutonomicIncrementalFailoverAndGC(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 31}
	want := referenceFingerprint(t, prog, 60)

	c := newCluster(t, 4, prog)
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 3}, c.Counters)

	// Kill the job's node mid-chain; with Interval 1.5ms and RebaseEvery 3
	// the first incarnation has rebased at least once by then, so both the
	// delta path and the GC path run before recovery does.
	failed := false
	c.OnStep(func() {
		if !failed && c.Now() >= simtime.Time(6*simtime.Millisecond) {
			failed = true
			c.Fail(0)
		}
	})

	sup := MustNewSupervisor(SupervisorConfig{
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
	if n := c.Counters.Get("ckpt.delta_acks"); n == 0 {
		t.Fatal("incremental mode shipped no deltas")
	}
	if n := c.Counters.Get("ckpt.full_acks"); n < 2 {
		t.Fatalf("ckpt.full_acks = %d, want ≥2 (initial full + at least one rebase)", n)
	}
	if n := c.Counters.Get("ckpt.retired"); n == 0 {
		t.Fatal("no superseded checkpoint was garbage-collected across a rebase")
	}
	for _, k := range []string{"ckpt.torn", "ckpt.lost", "ckpt.chain_fallback", "fence.double_commits"} {
		if n := c.Counters.Get(k); n != 0 {
			t.Fatalf("%s = %d, want 0", k, n)
		}
	}

	// Every retired object is really gone, and the live chain is really
	// there: replayable from the recovery pointer down to a full image.
	rem := c.Node(3).Remote()
	for _, ev := range sup.Events {
		if ev.Kind != EvRetire {
			continue
		}
		if _, err := rem.ObjectSize(ev.Object); err == nil {
			t.Fatalf("retired object %s still on the server", ev.Object)
		}
	}
	chain, err := checkpoint.LoadChain(rem, nil, sup.LastLeaf())
	if err != nil {
		t.Fatalf("live chain from %s is not replayable: %v", sup.LastLeaf(), err)
	}
	if chain[0].Mode != checkpoint.ModeFull {
		t.Fatalf("chain root mode = %v, want full", chain[0].Mode)
	}
	if !strings.HasPrefix(sup.LastLeaf(), "ckpt/e") {
		t.Fatalf("leaf %q not under an epoch namespace", sup.LastLeaf())
	}
}

// Satellite 1 regression: repeated failovers must not accumulate dead
// agents. Each rebooted incarnation's agent is reaped and compacted, so
// the supervisor never scans more than the current agent plus at most
// one not-yet-reaped predecessor.
func TestAgentCompactionAcrossRepeatedFailovers(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 31}
	want := referenceFingerprint(t, prog, 60)

	c := newCluster(t, 4, prog)
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 3}, c.Counters)

	sup := MustNewSupervisor(SupervisorConfig{
		C:           c,
		MkMech:      func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:        prog,
		Iterations:  60,
		Policy:      policy.Fixed(2 * simtime.Millisecond),
		Detector:    mon,
		ControlNode: 3,
		Incremental: true,
		RebaseEvery: 2,
	})

	// Kill whichever node the job is on every 6ms (three times), rebooting
	// it 2ms later so its orphaned agent gets reaped and spares never run
	// out. Track the worst-case live-agent count the whole way.
	jobNode := 0
	sup.OnEvent = func(ev Event) {
		if ev.Kind == EvAdmit {
			jobNode = ev.Node
		}
	}
	fails := 0
	var nextFail, rebootAt simtime.Time
	nextFail = simtime.Time(6 * simtime.Millisecond)
	rebootNode := -1
	maxLive := 0
	c.OnStep(func() {
		if n := sup.LiveAgents(); n > maxLive {
			maxLive = n
		}
		if rebootNode >= 0 && c.Now() >= rebootAt {
			c.Reboot(rebootNode)
			rebootNode = -1
		}
		if fails < 3 && c.Now() >= nextFail && c.NodeAlive(jobNode) {
			fails++
			c.Fail(jobNode)
			rebootNode = jobNode
			rebootAt = c.Now().Add(2 * simtime.Millisecond)
			nextFail = c.Now().Add(6 * simtime.Millisecond)
		}
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
	if sup.Restarts < 3 {
		t.Fatalf("only %d failovers happened; the scenario needs repeated incarnations", sup.Restarts)
	}
	// One live incarnation plus at most one dead-node agent awaiting its
	// reboot to be reaped. Without pumpAgents' compaction this grows by
	// one per incarnation and the assertion fails at the third failover.
	if maxLive > 2 {
		t.Fatalf("agent list reached %d entries across %d restarts — stopped agents leak",
			maxLive, sup.Restarts)
	}
}

// Satellite 2 regression: the interval policy is consulted at every
// pump, so an MTBF estimate that collapses AFTER an agent is armed still
// shortens that same agent's very next checkpoint gap. An arm-time
// snapshot of the interval would keep the stale gap forever.
func TestAdaptiveIntervalShrinksMidIncarnation(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 33}
	c := newCluster(t, 2, prog)
	p, err := c.Node(0).K.Spawn(prog.Name())
	if err != nil {
		t.Fatal(err)
	}
	workload.SetIterations(p, 1_000_000) // must outlive the test window

	pol := policy.YoungDaly(5 * simtime.Millisecond)
	pol.PriorMTBF = 20 * simtime.Millisecond
	sup := MustNewSupervisor(SupervisorConfig{
		C:          c,
		MkMech:     func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:       prog,
		Iterations: 1_000_000, // unused: agents are pumped directly, Run never starts
		Policy:     pol,
	})
	epoch := sup.fence.Advance()
	sup.armAgent(0, p.PID, epoch)
	c.OnStep(sup.pumpAgents)
	a := sup.agents[0]

	if !c.RunUntil(func() bool { return sup.Checkpoints >= 1 }, simtime.Second) {
		t.Fatal("first checkpoint never happened")
	}
	// The pump that just fired re-armed nextAt from the healthy estimate.
	gapHealthy := a.nextAt.Sub(c.Now())
	if gapHealthy <= 0 {
		t.Fatalf("gap after first pump = %v", gapHealthy)
	}

	// The world turns hostile: ten failures over one observed millisecond
	// collapse the MTBF estimate from the 20ms prior to 100µs, and the
	// youngdaly engine recomputes its cadence on each one.
	sup.Policy.ObserveUptime(simtime.Millisecond)
	for i := 0; i < 10; i++ {
		sup.Policy.ObserveFailure()
	}
	if !c.RunUntil(func() bool { return sup.Checkpoints >= 2 }, simtime.Second) {
		t.Fatal("second checkpoint never happened")
	}
	gapHostile := a.nextAt.Sub(c.Now())
	if gapHostile <= 0 {
		t.Fatalf("gap after second pump = %v", gapHostile)
	}
	if gapHostile >= gapHealthy/2 {
		t.Fatalf("checkpoint gap barely moved (%v → %v) after the MTBF collapsed: "+
			"the agent is using an arm-time interval snapshot", gapHealthy, gapHostile)
	}
}

// Incremental shipping through a mechanism with no delta capability
// ships full images, and counts every capture that fell back; the same
// run with CRAK counts none.
func TestIncrementalFullFallbackIsCounted(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 31}
	want := referenceFingerprint(t, prog, 40)
	for _, tc := range []struct {
		name     string
		mk       func() mechanism.Mechanism
		fallback bool
	}{
		{"crak", func() mechanism.Mechanism { return syslevel.NewCRAK() }, false},
		{"no-delta", func() mechanism.Mechanism { return plainMech{syslevel.NewCRAK()} }, true},
	} {
		c := newCluster(t, 4, prog)
		mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
			detector.Config{Period: 200 * simtime.Microsecond, Observer: 3}, c.Counters)
		sup := MustNewSupervisor(SupervisorConfig{
			C:           c,
			MkMech:      tc.mk,
			Prog:        prog,
			Iterations:  40,
			Policy:      policy.Fixed(simtime.Millisecond),
			Detector:    mon,
			ControlNode: 3,
			Incremental: true,
		})
		if err := sup.Run(2 * simtime.Second); err != nil {
			t.Fatal(err)
		}
		if !sup.Completed || sup.Fingerprint != want || sup.Checkpoints == 0 {
			t.Fatalf("%s: completed=%v fingerprint=%#x want %#x checkpoints=%d",
				tc.name, sup.Completed, sup.Fingerprint, want, sup.Checkpoints)
		}
		fallbacks, deltas := c.Counters.Get("agent.full_fallback"), c.Counters.Get("ckpt.delta_acks")
		switch {
		case tc.fallback && (fallbacks < int64(sup.Checkpoints) || deltas != 0):
			t.Fatalf("%s: agent.full_fallback = %d, ckpt.delta_acks = %d over %d checkpoints",
				tc.name, fallbacks, deltas, sup.Checkpoints)
		case !tc.fallback && (fallbacks != 0 || deltas == 0):
			t.Fatalf("%s: agent.full_fallback = %d, ckpt.delta_acks = %d", tc.name, fallbacks, deltas)
		}
	}
}

// Satellite 3: a mid-chain delta vanishes from the server (a lost write,
// or an ancestor wrongly GCed) and the node fails. Recovery must notice
// the break, count it, and fall back to the last full image — losing the
// deltas after it, not the job, and never restoring wrong-digest state.
func TestTornChainFallsBackToLastFull(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 31}
	want := referenceFingerprint(t, prog, 60)

	c := newCluster(t, 4, prog)
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 3}, c.Counters)

	sup := MustNewSupervisor(SupervisorConfig{
		C:           c,
		MkMech:      func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:        prog,
		Iterations:  60,
		Policy:      policy.Fixed(simtime.Millisecond),
		Detector:    mon,
		ControlNode: 3,
		Incremental: true,
		RebaseEvery: 100, // one full, then deltas only: no rebase resets the chain
	})

	// Watch the acks: once the first incarnation has full + two deltas,
	// delete the FIRST delta out from under the chain and kill the node.
	var fullObj, victim string
	deltas := 0
	jobNode := 0
	armed, struck := false, false
	sup.OnEvent = func(ev Event) {
		if ev.Kind == EvAdmit {
			jobNode = ev.Node
		}
		if struck || ev.Kind != EvAck {
			return
		}
		if fullObj == "" {
			fullObj = ev.Object
			return
		}
		deltas++
		if victim == "" {
			victim = ev.Object
		}
		if deltas >= 2 {
			armed = true
		}
	}
	rem := c.Node(3).Remote()
	c.OnStep(func() {
		if armed && !struck {
			struck = true
			if err := rem.Delete(victim); err != nil {
				t.Errorf("deleting %s: %v", victim, err)
			}
			c.Fail(jobNode)
		}
	})

	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if !struck {
		t.Fatal("the chain never grew two deltas — scenario did not run")
	}
	if !sup.Completed {
		t.Fatalf("job did not complete (ckpts=%d restarts=%d counters:\n%s)",
			sup.Checkpoints, sup.Restarts, c.Counters)
	}
	if sup.Fingerprint != want {
		t.Fatalf("fingerprint %#x want %#x: fallback restored wrong state", sup.Fingerprint, want)
	}
	if n := c.Counters.Get("ckpt.lost"); n != 1 {
		t.Fatalf("ckpt.lost = %d, want 1 (the deleted mid-chain delta)", n)
	}
	if n := c.Counters.Get("ckpt.chain_fallback"); n != 1 {
		t.Fatalf("ckpt.chain_fallback = %d, want 1", n)
	}
	if sup.FromScratch != 0 {
		t.Fatalf("recovery went from scratch %d times; the full image was intact", sup.FromScratch)
	}
	// The fallback restore really came from the surviving full image.
	restored := false
	for _, ev := range sup.Events {
		if ev.Kind == EvRestore && ev.Object == fullObj {
			restored = true
		}
	}
	if !restored {
		t.Fatalf("no restore from the last full %s (events:\n%s)", fullObj, FormatEvents(sup.Events))
	}
}

// tickTrackers wraps TICK and records, per incarnation epoch, the
// distinct trackers the agents pass to its RequestDelta.
type tickTrackers struct {
	*syslevel.TICK
	seen map[uint64]map[checkpoint.Tracker]bool
}

func (m tickTrackers) RequestDelta(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env,
	trk checkpoint.Tracker, epoch uint64, rebase bool) (*mechanism.Ticket, error) {
	if trk != nil {
		if m.seen[epoch] == nil {
			m.seen[epoch] = make(map[checkpoint.Tracker]bool)
		}
		m.seen[epoch][trk] = true
	}
	return m.TICK.RequestDelta(k, p, tgt, env, trk, epoch, rebase)
}

// The autonomic supervisor runs incrementally on TICK, the paper's
// proposed system: every capture is a delta request (no full-image
// fallback), deltas are acked, each incarnation arms exactly one tracker,
// and the job survives a node failure to its reference fingerprint.
func TestAutonomicIncrementalOnTICK(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 31}
	want := referenceFingerprint(t, prog, 60)

	c := newCluster(t, 4, prog)
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 3}, c.Counters)
	failed := false
	c.OnStep(func() {
		if !failed && c.Now() >= simtime.Time(6*simtime.Millisecond) {
			failed = true
			c.Fail(0)
		}
	})
	seen := make(map[uint64]map[checkpoint.Tracker]bool)
	sup := MustNewSupervisor(SupervisorConfig{
		C:           c,
		MkMech:      func() mechanism.Mechanism { return tickTrackers{syslevel.NewTICK(), seen} },
		Prog:        prog,
		Iterations:  60,
		Policy:      policy.Fixed(1500 * simtime.Microsecond),
		Detector:    mon,
		ControlNode: 3,
		Incremental: true,
		RebaseEvery: 3,
	})
	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if !sup.Completed || sup.Fingerprint != want {
		t.Fatalf("completed=%v fingerprint=%#x want %#x (counters:\n%s)", sup.Completed, sup.Fingerprint, want, c.Counters)
	}
	if sup.Restarts == 0 {
		t.Fatal("the node failure caused no failover")
	}
	if n := c.Counters.Get("agent.full_fallback"); n != 0 {
		t.Fatalf("agent.full_fallback = %d, want 0: TICK takes delta requests", n)
	}
	if n := c.Counters.Get("ckpt.delta_acks"); n == 0 {
		t.Fatal("no delta was acked")
	}
	if len(seen) < 2 {
		t.Fatalf("trackers seen for %d incarnations, want ≥2 across the failover", len(seen))
	}
	for epoch, trks := range seen {
		if len(trks) != 1 {
			t.Fatalf("incarnation at epoch %d passed %d trackers, want 1", epoch, len(trks))
		}
	}
}
