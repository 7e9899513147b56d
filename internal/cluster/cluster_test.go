package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/mechanism"
	"repro/internal/policy"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/syslevel"
	"repro/internal/workload"
)

func newCluster(t *testing.T, nodes int, progs ...kernel.Program) *Cluster {
	t.Helper()
	reg := kernel.NewRegistry()
	for _, p := range progs {
		reg.MustRegister(p)
	}
	return New(Config{Nodes: nodes, Seed: 1, KernelCfg: kernel.DefaultConfig("")},
		costmodel.Default2005(), reg)
}

func TestClusterStepAdvancesAllNodes(t *testing.T) {
	prog := workload.Spin{Tag: "x"}
	c := newCluster(t, 3, prog)
	for _, n := range c.Nodes() {
		if _, err := n.K.Spawn(prog.Name()); err != nil {
			t.Fatal(err)
		}
	}
	c.RunFor(10 * simtime.Millisecond)
	for i, n := range c.Nodes() {
		if n.K.Now() < c.Now()-simtime.Time(simtime.Millisecond) {
			t.Fatalf("node %d clock lags: %v vs %v", i, n.K.Now(), c.Now())
		}
		p, _ := n.K.Procs.Lookup(1)
		if p.CPUTime == 0 {
			t.Fatalf("node %d made no progress", i)
		}
	}
}

func TestFailStopKillsProcessesAndDisk(t *testing.T) {
	prog := workload.Spin{Tag: "x"}
	c := newCluster(t, 2, prog)
	n := c.Node(0)
	p, _ := n.K.Spawn(prog.Name())
	c.RunFor(simtime.Millisecond)
	w, _ := n.Disk.Create("ck", nil)
	w.Write([]byte("img"))
	w.Commit()

	c.Fail(0)
	if n.Alive() || !n.K.Halted() {
		t.Fatal("node not failed")
	}
	if p.State != proc.StateZombie {
		t.Fatalf("process state %v after fail-stop", p.State)
	}
	if n.Disk.Available() {
		t.Fatal("dead node's disk reachable")
	}
	c.Fail(0) // idempotent

	// Reboot: fresh kernel, disk contents intact.
	c.Reboot(0)
	if !n.Alive() {
		t.Fatal("reboot failed")
	}
	if n.K.Procs.Len() != 0 {
		t.Fatal("old processes survived reboot")
	}
	if _, err := n.Disk.ReadObject("ck", nil); err != nil {
		t.Fatalf("disk lost data across reboot: %v", err)
	}
	if n.K.Now() < c.Now() {
		t.Fatal("rebooted kernel clock behind cluster")
	}
}

func TestClusterMail(t *testing.T) {
	c := newCluster(t, 2)
	var got []string
	c.OnDeliver(1, func(p any) { got = append(got, p.(string)) })
	if err := c.Send(0, 1, "hello", 1024); err != nil {
		t.Fatal(err)
	}
	c.RunFor(simtime.Millisecond)
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("mail = %v", got)
	}
	// Mail to a dead node is dropped (fail-stop).
	c.Fail(1)
	c.Send(0, 1, "lost", 10)
	c.RunFor(simtime.Millisecond)
	if len(got) != 1 {
		t.Fatal("dead node received mail")
	}
	// A dead node cannot send.
	if err := c.Send(1, 0, "x", 1); err == nil {
		t.Fatal("dead node sent mail")
	}
}

func TestMigrateProcessAcrossNodes(t *testing.T) {
	prog := workload.Sparse{MiB: 2, WriteFrac: 0.2, Seed: 12, Iterations: 20}
	// Reference.
	cRef := newCluster(t, 1, prog)
	pr, _ := cRef.Node(0).K.Spawn(prog.Name())
	cRef.RunUntil(func() bool { return pr.State == proc.StateZombie }, simtime.Minute)
	want := workload.Fingerprint(pr)

	c := newCluster(t, 2, prog)
	p, _ := c.Node(0).K.Spawn(prog.Name())
	c.RunUntil(func() bool { return p.Regs().PC >= 10 }, simtime.Minute)
	p2, err := Migrate(c, NewMechPool(c, func() mechanism.Mechanism { return syslevel.NewCRAK() }), 0, 1, p.PID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(0).K.Procs.Lookup(p.PID); err == nil {
		t.Fatal("original still on source node")
	}
	if !c.RunUntil(func() bool { return p2.State == proc.StateZombie }, simtime.Minute) {
		t.Fatal("migrated process stuck")
	}
	if got := workload.Fingerprint(p2); got != want {
		t.Fatalf("fingerprint %#x want %#x", got, want)
	}
}

// TestGangResumeRefusesDownNode: a preempted gang whose member's node
// has failed must not resume onto it. Resume errors, the gang stays
// frozen with its images, and once the node reboots the same gang
// resumes and every member runs to completion.
func TestGangResumeRefusesDownNode(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.3, Seed: 2, Iterations: 30}
	c := newCluster(t, 2, prog)
	var members []GangMember
	for i := 0; i < 2; i++ {
		p, err := c.Node(i).K.Spawn(prog.Name())
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, GangMember{Node: i, PID: p.PID})
	}
	c.RunFor(5 * simtime.Millisecond)
	g := NewGang(c, func() mechanism.Mechanism { return syslevel.NewCRAK() }, members)
	if err := g.Preempt(); err != nil {
		t.Fatal(err)
	}
	c.Fail(1)
	before := len(c.Node(0).K.Procs.All())
	if procs, err := g.Resume(); err == nil {
		t.Fatalf("resume with node 1 down reported success (%d processes)", len(procs))
	}
	if n := len(c.Node(0).K.Procs.All()); n != before {
		t.Fatalf("refused resume changed node 0's process count %d -> %d", before, n)
	}
	c.Reboot(1)
	procs, err := g.Resume()
	if err != nil {
		t.Fatalf("resume after reboot: %v", err)
	}
	if len(procs) != 2 {
		t.Fatalf("resumed %d members, want 2", len(procs))
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

func TestGangPreemptResume(t *testing.T) {
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

	g := NewGang(c, func() mechanism.Mechanism { return syslevel.NewCRAK() }, members)
	if err := g.Preempt(); err != nil {
		t.Fatal(err)
	}
	if err := g.Preempt(); err == nil {
		t.Fatal("double preempt accepted")
	}
	// Nodes are free: no member processes remain.
	for _, mb := range members {
		if _, err := c.Node(mb.Node).K.Procs.Lookup(mb.PID); err == nil {
			t.Fatal("member still running after preempt")
		}
	}
	// Another job can use the nodes meanwhile.
	c.RunFor(10 * simtime.Millisecond)

	procs, err := g.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 3 {
		t.Fatalf("resumed %d", len(procs))
	}
	for _, p := range procs {
		p := p
		if !c.RunUntil(func() bool { return p.State == proc.StateZombie }, simtime.Minute) {
			t.Fatal("resumed member stuck")
		}
		if p.ExitCode != 0 {
			t.Fatalf("exit %d", p.ExitCode)
		}
	}
}

func TestSupervisorSurvivesFailuresWithRemoteStorage(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 31}
	want := referenceFingerprint(t, prog, 200)

	c := newCluster(t, 3, prog)
	sup := MustNewSupervisor(SupervisorConfig{
		C:          c,
		MkMech:     func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:       prog,
		Iterations: 200,
		Policy:     policy.Fixed(5 * simtime.Millisecond),
	})
	c.SetInjector(NewInjector(Exponential{Mean: 15 * simtime.Millisecond}, 2*simtime.Millisecond, 7, 3))
	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if !sup.Completed {
		t.Fatalf("job did not complete (ckpts=%d restarts=%d)", sup.Checkpoints, sup.Restarts)
	}
	if sup.Fingerprint != want {
		t.Fatalf("fingerprint %#x want %#x", sup.Fingerprint, want)
	}
	if sup.Checkpoints == 0 {
		t.Fatal("no checkpoints were taken")
	}
	if sup.Restarts == 0 {
		t.Fatal("no failure hit the job — scenario did not exercise recovery")
	}
	assertOracleRestartTrail(t, sup)
}

// assertOracleRestartTrail checks an oracle run's restart log: every
// restart logs exactly one event under the epoch its failover advanced
// to — EvRestore naming the newest acked image (the one restored), or
// EvScratch.
func assertOracleRestartTrail(t *testing.T, sup *Supervisor) {
	t.Helper()
	var restores, scratches int
	lastAck := ""
	var failoverEpoch uint64
	for _, ev := range sup.Events {
		switch ev.Kind {
		case EvAck:
			lastAck = ev.Object
		case EvFailover:
			failoverEpoch = ev.Epoch
		case EvRestore, EvScratch:
			if ev.Kind == EvRestore {
				restores++
				if ev.Object != lastAck {
					t.Errorf("%v restored %q, newest ack was %q", ev, ev.Object, lastAck)
				}
			} else {
				scratches++
			}
			if ev.Epoch != failoverEpoch {
				t.Errorf("%v: restart outside its failover's epoch %d", ev, failoverEpoch)
			}
		}
	}
	if restores+scratches != sup.Restarts || scratches != sup.FromScratch {
		t.Errorf("%d restore + %d scratch events for %d restarts (%d from scratch)",
			restores, scratches, sup.Restarts, sup.FromScratch)
	}
}

func TestYoungAndDaly(t *testing.T) {
	ckpt := 30 * simtime.Second
	mtbf := 12 * simtime.Hour
	y := policy.Young(ckpt, mtbf)
	// sqrt(2*30*43200) s = sqrt(2592000) ≈ 1609.97 s
	if y < 1600*simtime.Second || y > 1620*simtime.Second {
		t.Fatalf("Young = %v", y)
	}
	d := policy.Daly(ckpt, mtbf)
	if d < y-ckpt-60*simtime.Second || d > y+60*simtime.Second {
		t.Fatalf("Daly = %v vs Young %v", d, y)
	}
	if policy.Young(0, mtbf) != mtbf {
		t.Fatal("degenerate Young")
	}
}

func TestYoungIntervalIsAnalyticOptimum(t *testing.T) {
	// Sweep fixed intervals around Young's optimum; expected makespan must
	// be minimized near it (within the sweep's resolution).
	work := 48 * simtime.Hour
	ckpt := 5 * simtime.Minute
	mtbf := 10 * simtime.Hour
	opt := policy.Young(ckpt, mtbf)

	evaluate := func(iv simtime.Duration) simtime.Duration {
		cfg := JobConfig{
			Work: work, CkptCost: ckpt, RestartCost: 2 * simtime.Minute,
			RepairTime: 5 * simtime.Minute,
			Policy:     policy.Fixed(iv),
			Storage:    StoreRemote,
		}
		return AverageResult(cfg, Exponential{Mean: mtbf}, 42, 40).Makespan
	}
	mkOpt := evaluate(opt)
	mkShort := evaluate(opt / 8)
	mkLong := evaluate(opt * 8)
	if mkOpt >= mkShort {
		t.Fatalf("Young (%v) not better than too-frequent (%v): %v vs %v", opt, opt/8, mkOpt, mkShort)
	}
	if mkOpt >= mkLong {
		t.Fatalf("Young (%v) not better than too-rare (%v): %v vs %v", opt, opt*8, mkOpt, mkLong)
	}
}

func TestAnalyticStoragePolicies(t *testing.T) {
	// E5's shape: none ≫ local ≫ remote in makespan when failures can be
	// permanent; local ≈ remote when all failures are transient.
	base := JobConfig{
		Work: 24 * simtime.Hour, CkptCost: 2 * simtime.Minute,
		RestartCost: time2m(), RepairTime: 10 * simtime.Minute,
		Policy: policy.Fixed(30 * simtime.Minute),
	}
	fm := Exponential{Mean: 4 * simtime.Hour}

	run := func(st StoragePolicy, permFrac float64) JobResult {
		cfg := base
		cfg.Storage = st
		cfg.PermanentFrac = permFrac
		if st == StoreNone {
			cfg.Policy = policy.Spec{}
		}
		return AverageResult(cfg, fm, 7, 30)
	}

	remote := run(StoreRemote, 0.5)
	local := run(StoreLocal, 0.5)
	none := run(StoreNone, 0.5)
	if !(remote.Makespan < local.Makespan && local.Makespan < none.Makespan) {
		t.Fatalf("makespans: remote %v local %v none %v, want remote<local<none",
			remote.Makespan, local.Makespan, none.Makespan)
	}
	if remote.LostWork >= none.LostWork {
		t.Fatal("remote storage should lose less work than no checkpoints")
	}

	// With only transient failures, local ≈ remote (both restart from the
	// last checkpoint after the reboot).
	remoteT := run(StoreRemote, 0)
	localT := run(StoreLocal, 0)
	ratio := float64(localT.Makespan) / float64(remoteT.Makespan)
	if ratio > 1.05 || ratio < 0.95 {
		t.Fatalf("transient-only: local/remote makespan ratio %.3f, want ≈1", ratio)
	}
}

func TestAdaptiveYoungConvergesToOracle(t *testing.T) {
	// The autonomic policy (online MTBF estimate) must approach the
	// oracle (true-MTBF Young interval) makespan.
	cfg := JobConfig{
		Work: 72 * simtime.Hour, CkptCost: 3 * simtime.Minute,
		RestartCost: 2 * simtime.Minute, RepairTime: 5 * simtime.Minute,
		Storage:   StoreRemote,
		PriorMTBF: 100 * simtime.Hour, // badly wrong prior
	}
	fm := Exponential{Mean: 6 * simtime.Hour}

	oracle := cfg
	oracle.Policy = policy.Fixed(policy.Young(cfg.CkptCost, fm.Mean))
	adaptive := cfg
	adaptive.Policy = policy.Spec{Strategy: policy.StrategyYoungDaly, CkptCost: cfg.CkptCost}

	ro := AverageResult(oracle, fm, 11, 40)
	ra := AverageResult(adaptive, fm, 11, 40)
	if !ro.Completed || !ra.Completed {
		t.Fatal("runs did not complete")
	}
	ratio := float64(ra.Makespan) / float64(ro.Makespan)
	if ratio > 1.15 {
		t.Fatalf("adaptive makespan %.3f× oracle, want ≤1.15×", ratio)
	}
}

func TestFailureModels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	exp := Exponential{Mean: simtime.Hour}
	var s float64
	const n = 20000
	for i := 0; i < n; i++ {
		s += float64(exp.NextGap(rng))
	}
	mean := s / n
	if mean < 0.95*float64(simtime.Hour) || mean > 1.05*float64(simtime.Hour) {
		t.Fatalf("exponential sample mean %.3g, want ≈1h", mean)
	}

	w := Weibull{Scale: simtime.Hour, Shape: 1.5}
	if w.MTBF() <= 0 {
		t.Fatal("weibull MTBF")
	}
	s = 0
	for i := 0; i < n; i++ {
		s += float64(w.NextGap(rng))
	}
	mean = s / n
	if mean < 0.9*float64(w.MTBF()) || mean > 1.1*float64(w.MTBF()) {
		t.Fatalf("weibull sample mean %.3g vs MTBF %.3g", mean, float64(w.MTBF()))
	}
}

func TestMTBFEstimator(t *testing.T) {
	e := policy.NewMTBFEstimator(100 * simtime.Hour)
	if e.Estimate() != 100*simtime.Hour {
		t.Fatal("prior not used")
	}
	e.ObserveUptime(10 * simtime.Hour)
	e.ObserveFailure()
	e.ObserveUptime(6 * simtime.Hour)
	e.ObserveFailure()
	if got := e.Estimate(); got != 8*simtime.Hour {
		t.Fatalf("estimate %v, want 8h", got)
	}
	if e.Failures() != 2 {
		t.Fatal("failure count")
	}
}

func TestInjectorFiresAndRepairs(t *testing.T) {
	prog := workload.Spin{Tag: "x"}
	c := newCluster(t, 2, prog)
	inj := NewInjector(Exponential{Mean: 5 * simtime.Millisecond}, simtime.Millisecond, 9, 2)
	var fails int
	inj.OnFail = func(c *Cluster, node int, kind FailureKind) { fails++ }
	c.SetInjector(inj)
	c.RunFor(50 * simtime.Millisecond)
	if fails == 0 {
		t.Fatal("injector never fired")
	}
	// Transient failures repair: eventually both nodes are alive again.
	c.RunFor(5 * simtime.Millisecond)
	alive := 0
	for _, n := range c.Nodes() {
		if n.Alive() {
			alive++
		}
	}
	if alive == 0 {
		t.Fatal("no nodes recovered")
	}
}

func TestSimulateJobNoFailures(t *testing.T) {
	cfg := JobConfig{
		Work: simtime.Hour, CkptCost: simtime.Minute,
		Policy:  policy.Fixed(10 * simtime.Minute),
		Storage: StoreRemote,
	}
	// MTBF effectively infinite.
	r := SimulateJob(cfg, Exponential{Mean: simtime.Duration(1 << 60)}, rand.New(rand.NewSource(1)))
	if !r.Completed || r.Failures != 0 {
		t.Fatalf("result %+v", r)
	}
	// 5 interior checkpoints (6 segments of 10min in 60min of work).
	if r.Checkpoints != 5 {
		t.Fatalf("checkpoints = %d, want 5", r.Checkpoints)
	}
	want := cfg.Work + 5*cfg.CkptCost
	if r.Makespan != want {
		t.Fatalf("makespan %v, want %v", r.Makespan, want)
	}
}

func time2m() simtime.Duration { return 2 * simtime.Minute }

func TestMechPoolCachesPerNode(t *testing.T) {
	prog := workload.Dense{MiB: 1}
	c := newCluster(t, 2, prog)
	calls := 0
	pool := NewMechPool(c, func() mechanism.Mechanism {
		calls++
		return syslevel.NewCRAK()
	})
	m0a, err := pool.For(0)
	if err != nil {
		t.Fatal(err)
	}
	m0b, _ := pool.For(0)
	if m0a != m0b {
		t.Fatal("pool returned different instances for one node")
	}
	if _, err := pool.For(1); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("factory called %d times, want 2", calls)
	}
	// A reboot replaces node 0's kernel: the cached instance is bound to
	// the dead one, so the pool must install a fresh mechanism.
	c.Fail(0)
	c.Reboot(0)
	m0c, err := pool.For(0)
	if err != nil {
		t.Fatal(err)
	}
	if m0c == m0a || calls != 3 {
		t.Fatalf("after reboot: same instance %v, factory calls %d (want a fresh install, 3)", m0c == m0a, calls)
	}
}

func TestSupervisorLocalDiskLosesProgressOnPermanentFailure(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 41}
	c := newCluster(t, 3, prog)
	sup := MustNewSupervisor(SupervisorConfig{
		C:            c,
		MkMech:       func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:         prog,
		Iterations:   400,
		Policy:       policy.Fixed(4 * simtime.Millisecond),
		UseLocalDisk: true,
	})
	// All failures permanent: local checkpoints die with the node.
	inj := NewInjector(Exponential{Mean: 30 * simtime.Millisecond}, 2*simtime.Millisecond, 3, 3)
	inj.PermanentFrac = 1.0
	c.SetInjector(inj)
	if err := sup.Run(2 * simtime.Second); err != nil {
		// Running out of spare nodes is an acceptable outcome of all-
		// permanent failures; the assertion below still applies if any
		// restart happened.
		if sup.Restarts == 0 {
			t.Skipf("no failures materialized: %v", err)
		}
	}
	if sup.Restarts > 0 && sup.FromScratch == 0 {
		t.Fatalf("restarts %d happened but none were from scratch — local checkpoints should have died with their node", sup.Restarts)
	}
	assertOracleRestartTrail(t, sup)
}

func TestNodeRemoteSharesServer(t *testing.T) {
	c := newCluster(t, 2)
	w, err := c.Node(0).Remote().Create("obj", nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("x"))
	w.Commit()
	if _, err := c.Node(1).Remote().ReadObject("obj", nil); err != nil {
		t.Fatalf("node1 cannot read node0's remote checkpoint: %v", err)
	}
}

func TestInjectorPermanentFailuresDoNotRepair(t *testing.T) {
	prog := workload.Spin{Tag: "x"}
	c := newCluster(t, 1, prog)
	inj := NewInjector(Exponential{Mean: 2 * simtime.Millisecond}, simtime.Millisecond, 5, 1)
	inj.PermanentFrac = 1.0
	c.SetInjector(inj)
	c.RunFor(50 * simtime.Millisecond)
	if c.Node(0).Alive() {
		t.Fatal("permanently failed node came back")
	}
	if c.FindSpare(-1) != -1 && c.Node(0).Alive() {
		t.Fatal("spare search inconsistent")
	}
}

func TestWeibullStoragePoliciesSameShape(t *testing.T) {
	// The E5 ordering holds under a wear-out (Weibull) failure law too.
	base := JobConfig{
		Work: 24 * simtime.Hour, CkptCost: 2 * simtime.Minute,
		RestartCost: 2 * simtime.Minute, RepairTime: 10 * simtime.Minute,
		Policy:        policy.Fixed(30 * simtime.Minute),
		PermanentFrac: 0.5,
	}
	fm := Weibull{Scale: 8 * simtime.Hour, Shape: 1.5}
	run := func(st StoragePolicy) JobResult {
		cfg := base
		cfg.Storage = st
		if st == StoreNone {
			cfg.Policy = policy.Spec{}
		}
		return AverageResult(cfg, fm, 17, 25)
	}
	remote, local, none := run(StoreRemote), run(StoreLocal), run(StoreNone)
	if !(remote.Makespan < local.Makespan && local.Makespan < none.Makespan) {
		t.Fatalf("weibull makespans: remote %v local %v none %v", remote.Makespan, local.Makespan, none.Makespan)
	}
}
