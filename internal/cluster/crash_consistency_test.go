package cluster

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/costmodel"
	"repro/internal/mechanism"
	"repro/internal/policy"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/syslevel"
	"repro/internal/workload"
)

// failRestartMech fails Restart on one specific kernel — the destination
// of a migration — and behaves normally everywhere else.
type failRestartMech struct {
	mechanism.Mechanism
	failOn *kernel.Kernel
}

func (m *failRestartMech) Restart(k *kernel.Kernel, chain []*checkpoint.Image, enqueue bool) (*proc.Process, error) {
	if k == m.failOn {
		return nil, errors.New("injected destination restart failure")
	}
	return m.Mechanism.Restart(k, chain, enqueue)
}

// TestMigrateFailedRestartKeepsSourceRunning is the regression test for
// the kill-before-restart ordering bug: when the destination restart
// fails, the source process must still be running (and able to finish),
// not already exited and removed.
func TestMigrateFailedRestartKeepsSourceRunning(t *testing.T) {
	prog := workload.Sparse{MiB: 2, WriteFrac: 0.2, Seed: 12, Iterations: 500}
	cRef := newCluster(t, 1, prog)
	pr, _ := cRef.Node(0).K.Spawn(prog.Name())
	cRef.RunUntil(func() bool { return pr.State == proc.StateZombie }, simtime.Minute)
	want := workload.Fingerprint(pr)

	c := newCluster(t, 2, prog)
	p, _ := c.Node(0).K.Spawn(prog.Name())
	c.RunUntil(func() bool { return p.Regs().PC >= 10 }, simtime.Minute)

	pool := NewMechPool(c, func() mechanism.Mechanism {
		return &failRestartMech{Mechanism: syslevel.NewCRAK(), failOn: c.Node(1).K}
	})
	if _, err := Migrate(c, pool, 0, 1, p.PID); err == nil {
		t.Fatal("migration to a failing destination reported success")
	}
	got, err := c.Node(0).K.Procs.Lookup(p.PID)
	if err != nil {
		t.Fatalf("source process gone after failed migration: %v", err)
	}
	if got.State == proc.StateZombie || got.State == proc.StateDead {
		t.Fatalf("source process dead after failed migration: state %v", got.State)
	}
	// Nothing leaked onto the destination.
	for _, q := range c.Node(1).K.Procs.All() {
		if q.Exe == p.Exe {
			t.Fatal("orphaned copy on destination after failed restart")
		}
	}
	// The survivor runs to the correct answer.
	if !c.RunUntil(func() bool { return p.State == proc.StateZombie }, simtime.Minute) {
		t.Fatal("source process stuck after failed migration")
	}
	if fp := workload.Fingerprint(p); fp != want {
		t.Fatalf("fingerprint %#x want %#x", fp, want)
	}
}

// failRequestMech fails checkpoint requests on one kernel while armed.
type failRequestMech struct {
	mechanism.Mechanism
	failOn *kernel.Kernel
	armed  *bool
}

func (m *failRequestMech) Request(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*mechanism.Ticket, error) {
	if *m.armed && k == m.failOn {
		return nil, errors.New("injected checkpoint failure")
	}
	return m.Mechanism.Request(k, p, tgt, env)
}

// TestGangPreemptPartialFailureLeavesGangRunning is the regression test
// for the interleaved capture-and-kill loop: a checkpoint failure on the
// last member used to leave the earlier members already dead with the
// gang not frozen. Preempt must be all-or-nothing.
func TestGangPreemptPartialFailureLeavesGangRunning(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.3, Seed: 2, Iterations: 30}
	c := newCluster(t, 3, prog)
	var members []GangMember
	for i := 0; i < 3; i++ {
		p, err := c.Node(i).K.Spawn(prog.Name())
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, GangMember{Node: i, PID: p.PID})
	}
	c.RunUntil(func() bool {
		p, err := c.Node(0).K.Procs.Lookup(members[0].PID)
		return err == nil && p.Regs().PC >= 5
	}, simtime.Minute)

	armed := true
	g := NewGang(c, func() mechanism.Mechanism {
		return &failRequestMech{Mechanism: syslevel.NewCRAK(), failOn: c.Node(2).K, armed: &armed}
	}, members)

	if err := g.Preempt(); err == nil {
		t.Fatal("preempt with a failing member reported success")
	}
	// All-or-nothing: every member is still running.
	for i, mb := range members {
		p, err := c.Node(mb.Node).K.Procs.Lookup(mb.PID)
		if err != nil {
			t.Fatalf("member %d killed by failed preempt: %v", i, err)
		}
		if p.State == proc.StateZombie || p.State == proc.StateDead {
			t.Fatalf("member %d dead after failed preempt", i)
		}
	}
	// The gang is not half-frozen: Resume refuses.
	if _, err := g.Resume(); err == nil {
		t.Fatal("resume after failed preempt reported success")
	}

	// Clear the fault: the same gang preempts and resumes cleanly.
	armed = false
	if err := g.Preempt(); err != nil {
		t.Fatal(err)
	}
	for _, mb := range members {
		if _, err := c.Node(mb.Node).K.Procs.Lookup(mb.PID); err == nil {
			t.Fatal("member still running after successful preempt")
		}
	}
	procs, err := g.Resume()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		p := p
		if !c.RunUntil(func() bool { return p.State == proc.StateZombie }, simtime.Minute) {
			t.Fatalf("resumed member %d stuck", i)
		}
		if p.ExitCode != 0 {
			t.Fatalf("member %d exit %d", i, p.ExitCode)
		}
	}
}

// TestSupervisorRetriesAndFallsBackToLocalDisk pins the local-fallback
// behaviour: with the checkpoint server crashing every write and the
// node disks healthy, every round's capture must fail against the server
// and land the image locally.
func TestSupervisorRetriesAndFallsBackToLocalDisk(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 31}
	c := newCluster(t, 2, prog)
	c.Server.SetFaults(&storage.FaultPolicy{WriteFault: 1, Rng: rand.New(rand.NewSource(5))})

	sup := MustNewSupervisor(SupervisorConfig{
		C:             c,
		MkMech:        func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:          prog,
		Iterations:    60,
		Policy:        policy.Fixed(5 * simtime.Millisecond),
		LocalFallback: true,
	})
	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if !sup.Completed {
		t.Fatal("job did not complete")
	}
	if sup.Checkpoints == 0 {
		t.Fatal("no checkpoints landed despite local fallback")
	}
	if got := sup.Counters().Get("agent.ckpt_failed"); got == 0 {
		t.Fatalf("agent.ckpt_failed = %d, want > 0", got)
	}
	if got := sup.Counters().Get("ckpt.fellback"); got == 0 {
		t.Fatalf("ckpt.fellback = %d, want > 0", got)
	}
	// Every image actually lives on a node disk, none on the server.
	onDisk := 0
	for _, n := range c.Nodes() {
		intact, torn, _ := checkpoint.Audit(n.Disk)
		onDisk += intact
		if torn != 0 {
			t.Fatalf("torn image on %s", n.Name)
		}
	}
	if onDisk != sup.Checkpoints {
		t.Fatalf("disk images %d != checkpoints %d", onDisk, sup.Checkpoints)
	}
}

// TestSupervisorWithoutFallbackReportsFailedRounds pins the conservative
// path: no fallback means failed rounds are counted and the job still
// completes (checkpointing is protection, not a prerequisite).
func TestSupervisorWithoutFallbackReportsFailedRounds(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 31}
	c := newCluster(t, 2, prog)
	c.Server.SetFaults(&storage.FaultPolicy{WriteFault: 1, Rng: rand.New(rand.NewSource(5))})

	sup := MustNewSupervisor(SupervisorConfig{
		C:          c,
		MkMech:     func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:       prog,
		Iterations: 60,
		Policy:     policy.Fixed(5 * simtime.Millisecond),
	})
	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if !sup.Completed {
		t.Fatal("job did not complete")
	}
	if sup.Checkpoints != 0 {
		t.Fatalf("checkpoints %d, want 0 (server unusable, no fallback)", sup.Checkpoints)
	}
	if got := sup.Counters().Get("agent.ckpt_failed"); got == 0 {
		t.Fatalf("agent.ckpt_failed = %d, want > 0", got)
	}
}

// acceptanceRun drives the ISSUE's acceptance scenario: a Supervisor job
// over 10% per-write storage faults, node failures included.
func acceptanceRun(t *testing.T, unsafeCommit bool) (*Supervisor, *Cluster) {
	t.Helper()
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 11}
	c := newClusterSeed(t, 3, 11, prog)
	c.EnableStorageFaults(StorageFaultConfig{
		WriteFault:   0.1,
		OutageFrac:   0.25,
		SilentTear:   0.1,
		PublishFault: 0.02,
		ServerRepair: 20 * simtime.Millisecond,
	})
	c.SetInjector(NewInjector(Exponential{Mean: 40 * simtime.Millisecond}, 3*simtime.Millisecond, 21, 3))
	sup := MustNewSupervisor(SupervisorConfig{
		C:             c,
		MkMech:        func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:          prog,
		Iterations:    600,
		Policy:        policy.Fixed(5 * simtime.Millisecond),
		LocalFallback: true,
		UnsafeCommit:  unsafeCommit,
	})
	if err := sup.Run(10 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	return sup, c
}

func newClusterSeed(t *testing.T, nodes int, seed int64, progs ...kernel.Program) *Cluster {
	t.Helper()
	reg := kernel.NewRegistry()
	for _, p := range progs {
		reg.MustRegister(p)
	}
	return New(Config{Nodes: nodes, Seed: seed, KernelCfg: kernel.DefaultConfig("")},
		costmodel.Default2005(), reg)
}

// TestSupervisorCrashConsistencyUnderStorageFaults is the acceptance
// criterion end to end: at a 10% per-write fault rate, a run with atomic
// commit completes with the right answer and zero torn images anywhere,
// while the same seed with atomic commit disabled produces at least one
// torn or lost image.
func TestSupervisorCrashConsistencyUnderStorageFaults(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 11}
	cRef := newCluster(t, 1, prog)
	pr, _ := cRef.Node(0).K.Spawn(prog.Name())
	workload.SetIterations(pr, 600)
	cRef.RunUntil(func() bool { return pr.State == proc.StateZombie }, simtime.Minute)
	want := workload.Fingerprint(pr)

	sup, c := acceptanceRun(t, false)
	if !sup.Completed {
		t.Fatalf("atomic run did not complete (ckpts=%d restarts=%d)", sup.Checkpoints, sup.Restarts)
	}
	if sup.Fingerprint != want {
		t.Fatalf("atomic run fingerprint %#x want %#x", sup.Fingerprint, want)
	}
	if torn, lost := sup.Counters().Get("ckpt.torn"), sup.Counters().Get("ckpt.lost"); torn != 0 || lost != 0 {
		t.Fatalf("atomic run observed torn=%d lost=%d images at restore", torn, lost)
	}
	if sup.Counters().Get("agent.ckpt_failed") == 0 {
		t.Fatal("atomic run reported no failed capture at a 10% fault rate")
	}
	// Sweep all storage: no committed image anywhere fails to decode.
	c.Server.Recover()
	if _, torn, _ := checkpoint.Audit(c.Node(0).Remote()); torn != 0 {
		t.Fatalf("atomic run left %d torn images on the server", torn)
	}
	for _, n := range c.Nodes() {
		if !n.Alive() {
			continue
		}
		if _, torn, _ := checkpoint.Audit(n.Disk); torn != 0 {
			t.Fatalf("atomic run left %d torn images on %s", torn, n.Name)
		}
	}

	unsafeSup, uc := acceptanceRun(t, true)
	uc.Server.Recover()
	damage := unsafeSup.Counters().Get("ckpt.torn") + unsafeSup.Counters().Get("ckpt.lost")
	if _, torn, _ := checkpoint.Audit(uc.Node(0).Remote()); torn > 0 {
		damage += int64(torn)
	}
	for _, n := range uc.Nodes() {
		if n.Alive() {
			if _, torn, _ := checkpoint.Audit(n.Disk); torn > 0 {
				damage += int64(torn)
			}
		}
	}
	if damage == 0 {
		t.Fatal("unsafe commit produced no torn or lost images — the contrast is gone")
	}
}
