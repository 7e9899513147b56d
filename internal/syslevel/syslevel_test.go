package syslevel

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/costmodel"
	"repro/internal/mechanism"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

func newMachine(name string, progs ...kernel.Program) *kernel.Kernel {
	reg := kernel.NewRegistry()
	for _, p := range progs {
		reg.MustRegister(p)
	}
	return kernel.New(kernel.DefaultConfig(name), costmodel.Default2005(), reg)
}

func localTarget() *storage.Store {
	return storage.NewLocal("disk0", costmodel.Default2005(), nil)
}

func remoteTarget() *storage.Store {
	srv := storage.NewServer("srv", costmodel.Default2005())
	return storage.NewRemote("net0", srv)
}

// referenceFingerprint runs prog (possibly prepared by m) to completion on
// a fresh machine and returns the final fingerprint.
func referenceFingerprint(t *testing.T, m mechanism.Mechanism, prog kernel.Program, iters uint64) uint64 {
	t.Helper()
	prepared := m.Prepare(prog)
	k := newMachine("ref", prepared)
	if err := m.Install(k); err != nil {
		// Mechanisms are single-kernel; reference run uses a throwaway copy
		// when install fails. Tests pass fresh mechanism instances instead.
		t.Fatalf("install on ref: %v", err)
	}
	p, err := k.Spawn(prepared.Name())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Setup(k, p); err != nil {
		t.Fatal(err)
	}
	workload.SetIterations(p, iters)
	if !k.RunUntilExit(p, k.Now().Add(10*simtime.Minute)) {
		t.Fatalf("reference run stuck (pc=%d)", p.Regs().PC)
	}
	if p.ExitCode != 0 {
		t.Fatalf("reference exit %d", p.ExitCode)
	}
	return workload.Fingerprint(p)
}

func TestVMADumpRequiresModifiedApplication(t *testing.T) {
	m := NewVMADump(0, nil)
	prog := workload.Dense{MiB: 1}
	k := newMachine("k", prog) // NOT prepared
	if err := m.Install(k); err != nil {
		t.Fatal(err)
	}
	p, _ := k.Spawn(prog.Name())
	workload.SetIterations(p, 1<<30)
	k.RunFor(simtime.Millisecond)
	_, err := m.Request(k, p, localTarget(), nil)
	if !errors.Is(err, mechanism.ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported (no transparency)", err)
	}
}

// A self-checkpoint whose write fails returns the error from the
// checkpoint system call; the application carries on to its end.
func TestVMADumpFailedSelfCheckpointKeepsRunning(t *testing.T) {
	m := NewVMADump(0, nil)
	prog := m.Prepare(workload.Dense{MiB: 1})
	k := newMachine("k", prog)
	if err := m.Install(k); err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn(prog.Name())
	if err != nil {
		t.Fatal(err)
	}
	workload.SetIterations(p, 40)
	runIterations(k, p, 3)
	tgt := localTarget()
	tgt.SetFaults(&storage.FaultPolicy{WriteFault: 1, Rng: rand.New(rand.NewSource(1))})
	tk, err := m.Request(k, p, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !k.RunUntilExit(p, k.Now().Add(simtime.Minute)) {
		t.Fatalf("job stuck at iteration %d", p.Regs().PC)
	}
	if !tk.Done || tk.Err == nil {
		t.Fatalf("ticket done=%v err=%v, want the injected write fault", tk.Done, tk.Err)
	}
	if p.ExitCode != 0 || p.Regs().PC != 40 {
		t.Fatalf("job exited %d at iteration %d, want 0 at 40", p.ExitCode, p.Regs().PC)
	}
}

func TestEPCKPTRequiresLaunchTool(t *testing.T) {
	m := NewEPCKPT()
	prog := workload.Dense{MiB: 1}
	k := newMachine("k", prog)
	m.Install(k)
	p, _ := k.Spawn(prog.Name()) // launched without the tool
	workload.SetIterations(p, 1<<30)
	k.RunFor(simtime.Millisecond)
	if _, err := m.Request(k, p, localTarget(), nil); !errors.Is(err, mechanism.ErrNotRegistered) {
		t.Fatalf("err = %v, want ErrNotRegistered", err)
	}
}

func TestCHPOXRegistersViaProc(t *testing.T) {
	m := NewCHPOX()
	prog := workload.Dense{MiB: 1}
	k := newMachine("k", prog)
	if err := m.Install(k); err != nil {
		t.Fatal(err)
	}
	if !k.FS.Exists("/proc/chpox") {
		t.Fatal("/proc/chpox missing after module load")
	}
	p, _ := k.Spawn(prog.Name())
	workload.SetIterations(p, 1<<30)
	if _, err := m.Request(k, p, localTarget(), nil); !errors.Is(err, mechanism.ErrNotRegistered) {
		t.Fatalf("unregistered request: %v", err)
	}
	if err := m.Setup(k, p); err != nil {
		t.Fatal(err)
	}
	if !p.Registered["CHPOX"] {
		t.Fatal("proc write did not register")
	}
	// Module unload removes the /proc entry and the signal override.
	if err := k.UnloadModule("chpox"); err != nil {
		t.Fatal(err)
	}
	if k.FS.Exists("/proc/chpox") {
		t.Fatal("/proc/chpox survives unload")
	}
}

func TestLocalOnlyMechanismsRejectRemote(t *testing.T) {
	prog := workload.Dense{MiB: 1}
	for _, mk := range []func() mechanism.Mechanism{
		func() mechanism.Mechanism { return NewUCLiK() },
		func() mechanism.Mechanism { return NewCHPOX() },
		func() mechanism.Mechanism { return NewPsncRC() },
	} {
		m := mk()
		k := newMachine("k", prog)
		if err := m.Install(k); err != nil {
			t.Fatal(err)
		}
		p, _ := k.Spawn(prog.Name())
		m.Setup(k, p)
		if _, err := m.Request(k, p, remoteTarget(), nil); err == nil {
			t.Fatalf("%s accepted a remote target (Table 1 says local only)", m.Name())
		}
	}
}

func TestBLCRRequiresInitPhase(t *testing.T) {
	m := NewBLCR()
	prog := workload.Dense{MiB: 1}
	k := newMachine("k", prog)
	m.Install(k)
	p, _ := k.Spawn(prog.Name())
	if _, err := m.Request(k, p, localTarget(), nil); !errors.Is(err, mechanism.ErrNotRegistered) {
		t.Fatalf("err = %v, want ErrNotRegistered (init phase skipped)", err)
	}
}

func TestBLCRHandlesThreadsCRAKDoesNot(t *testing.T) {
	prog := workload.MultiThreaded{MiB: 1, NThreads: 3, Iterations: 1 << 20}

	crak := NewCRAK()
	k1 := newMachine("k1", prog)
	crak.Install(k1)
	p1, _ := k1.Spawn(prog.Name())
	k1.RunFor(simtime.Millisecond)
	if _, err := crak.Request(k1, p1, localTarget(), nil); !errors.Is(err, mechanism.ErrUnsupported) {
		t.Fatalf("CRAK on multithreaded: %v, want ErrUnsupported", err)
	}

	blcr := NewBLCR()
	k2 := newMachine("k2", prog)
	blcr.Install(k2)
	p2, _ := k2.Spawn(prog.Name())
	blcr.Setup(k2, p2)
	k2.RunFor(simtime.Millisecond)
	tk, err := mechanism.Checkpoint(blcr, k2, p2, localTarget(), nil)
	if err != nil {
		t.Fatalf("BLCR on multithreaded: %v", err)
	}
	if len(tk.Img.Threads) != 3 {
		t.Fatalf("BLCR captured %d threads", len(tk.Img.Threads))
	}
}

// The thread rule holds on every initiation path, not only the
// kernel-thread family's: the single-threaded syscall and signal systems
// refuse a 3-thread process with ErrUnsupported. Software Suspend saves
// the whole machine, threads and all.
func TestSingleThreadedSystemsRefuseThreads(t *testing.T) {
	prog := workload.MultiThreaded{MiB: 1, NThreads: 3, Iterations: 1 << 20}
	launch := func(m mechanism.Mechanism) (*kernel.Kernel, *proc.Process) {
		prepared := m.Prepare(prog)
		k := newMachine("k", prepared)
		if err := m.Install(k); err != nil {
			t.Fatal(err)
		}
		p, err := k.Spawn(prepared.Name())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Setup(k, p); err != nil {
			t.Fatal(err)
		}
		k.RunFor(simtime.Millisecond)
		return k, p
	}
	for _, m := range []mechanism.Mechanism{NewVMADump(0, nil), NewEPCKPT(), NewCHPOX()} {
		k, p := launch(m)
		if _, err := mechanism.Checkpoint(m, k, p, localTarget(), nil); !errors.Is(err, mechanism.ErrUnsupported) {
			t.Errorf("%s on a multithreaded process: %v, want ErrUnsupported", m.Name(), err)
		}
	}
	m := NewSoftwareSuspend()
	k, p := launch(m)
	tk, err := mechanism.Checkpoint(m, k, p, localTarget(), nil)
	if err != nil {
		t.Fatalf("Software Suspend: %v", err)
	}
	if len(tk.Img.Threads) != 3 {
		t.Fatalf("Software Suspend saved %d threads", len(tk.Img.Threads))
	}
}

func TestUCLiKRestoresPIDAndDeletedFile(t *testing.T) {
	m := NewUCLiK()
	prog := workload.Dense{MiB: 1}
	k := newMachine("k", prog)
	m.Install(k)
	p, _ := k.Spawn(prog.Name())
	workload.SetIterations(p, 1<<30)
	k.RunFor(simtime.Millisecond)

	// Open + delete a file.
	k.FS.WriteFile("/data", []byte("important"))
	ctx := &kernel.Context{K: k, P: p, T: p.MainThread()}
	fd, _ := ctx.Open("/data", 0x1) // fs.ORead
	k.FS.Unlink("/data")

	tgt := localTarget()
	tk, err := mechanism.Checkpoint(m, k, p, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tk.Img.FDs[len(tk.Img.FDs)-1].Contents == nil {
		t.Fatal("deleted file contents not captured")
	}
	origPID := p.PID
	k.Exit(p, 137)
	k.Procs.Remove(p.PID)
	chain, _ := checkpoint.LoadChain(tgt, nil, tk.Img.ObjectName())
	p2, err := m.Restart(k, chain, false)
	if err != nil {
		t.Fatal(err)
	}
	if p2.PID != origPID {
		t.Fatalf("pid %d, want original %d", p2.PID, origPID)
	}
	of, err := p2.FD(fd)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := of.Read(nil, buf)
	if string(buf[:n]) != "important" {
		t.Fatalf("deleted file content %q", buf[:n])
	}
}

func TestZAPMigratesKernelResources(t *testing.T) {
	m := NewZAP()
	prog := workload.ResourceUser{MiB: 1, Iterations: 400, UseSocket: true, UseShm: true, CheckPID: true}
	want := referenceFingerprint(t, NewZAP(), prog, 400)

	prepared := m.Prepare(prog)
	k := newMachine("src", prepared)
	m.Install(k)
	p, _ := k.Spawn(prepared.Name())
	for p.Regs().PC < 200 && p.State != proc.StateZombie {
		k.RunFor(simtime.Millisecond)
	}
	tk, err := mechanism.Checkpoint(m, k, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tk.Img.Sockets) != 1 {
		t.Fatal("pod did not capture the socket")
	}

	// Migrate to a second machine running the same (pod-wrapped) binary.
	m2 := NewZAP()
	dst := newMachine("dst", m2.Prepare(prog))
	m2.Install(dst)
	p2, err := m.Restart(dst, []*checkpoint.Image{tk.Img}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !dst.RunUntilExit(p2, dst.Now().Add(10*simtime.Minute)) {
		t.Fatal("migrated process stuck")
	}
	if p2.ExitCode != workload.ExitOK {
		t.Fatalf("migrated exit %d, want OK (virtualization)", p2.ExitCode)
	}
	if got := workload.Fingerprint(p2); got != want {
		t.Fatalf("fingerprint %#x want %#x", got, want)
	}
}

func TestZAPInterceptionOverhead(t *testing.T) {
	prog := workload.Allocator{MiB: 1, Iterations: 500} // syscall-heavy
	run := func(wrap bool) simtime.Duration {
		m := NewZAP()
		var pr kernel.Program = prog
		if wrap {
			pr = m.Prepare(prog)
		}
		k := newMachine("k", pr)
		p, _ := k.Spawn(pr.Name())
		if !k.RunUntilExit(p, k.Now().Add(simtime.Minute)) {
			t.Fatal("stuck")
		}
		return p.CPUTime
	}
	plain := run(false)
	pod := run(true)
	if pod <= plain {
		t.Fatalf("pod run (%v) should be slower than plain (%v)", pod, plain)
	}
}

func TestPsncRCIncludesFileContents(t *testing.T) {
	m := NewPsncRC()
	prog := workload.Dense{MiB: 1}
	k := newMachine("k", prog)
	m.Install(k)
	if !k.FS.Exists("/proc/psncrc") {
		t.Fatal("/proc/psncrc missing")
	}
	p, _ := k.Spawn(prog.Name())
	workload.SetIterations(p, 1<<30)
	k.RunFor(simtime.Millisecond)
	k.FS.WriteFile("/big", make([]byte, 64<<10))
	ctx := &kernel.Context{K: k, P: p, T: p.MainThread()}
	ctx.Open("/big", 0x1)

	tgt := localTarget()
	tk, err := mechanism.Checkpoint(m, k, p, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The returned image and the stored object must both carry the file:
	// a restart reads the stored one.
	chain, err := checkpoint.LoadChain(tgt, nil, tk.Img.ObjectName())
	if err != nil {
		t.Fatal(err)
	}
	for name, img := range map[string]*checkpoint.Image{"returned": tk.Img, "stored": chain[len(chain)-1]} {
		var found bool
		for _, f := range img.FDs {
			if f.Path == "/big" && len(f.Contents) == 64<<10 {
				found = true
			}
		}
		if !found {
			t.Fatalf("PsncR/C's %s image does not include the open file's contents", name)
		}
	}
}

func TestCheckpointForkParentRunsDuringSave(t *testing.T) {
	tgt := localTarget()
	m := NewCheckpointFork(0, nil)
	prog := workload.Dense{MiB: 8}
	prepared := m.Prepare(prog)
	k := newMachine("k", prepared)
	m.Install(k)
	p, _ := k.Spawn(prepared.Name())
	workload.SetIterations(p, 1<<30)
	for !p.Registered["Checkpoint"] { // first checkpoint point registers the app
		k.RunFor(simtime.Millisecond)
	}
	tk, err := m.Request(k, p, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mechanism.WaitTicket(k, tk, simtime.Minute); err != nil {
		t.Fatal(err)
	}
	// The captured image must be consistent (a frozen fork), yet the
	// parent should have made progress during the disk write.
	imgPC := tk.Img.Threads[0].Regs.PC*1000000 + tk.Img.Threads[0].Regs.G[4]
	livePC := p.Regs().PC*1000000 + p.Regs().G[4]
	if livePC <= imgPC {
		t.Fatalf("parent made no progress during save: img %d live %d", imgPC, livePC)
	}
	if tk.Img.PID != p.PID {
		t.Fatalf("image pid %d, want parent %d", tk.Img.PID, p.PID)
	}
}

func TestSoftwareSuspendHibernateResume(t *testing.T) {
	m := NewSoftwareSuspend()
	progA := workload.Dense{MiB: 1}
	progB := workload.Spin{Tag: "bg"}
	k := newMachine("laptop", progA, progB)
	if err := m.Install(k); err != nil {
		t.Fatal(err)
	}
	pa, _ := k.Spawn(progA.Name())
	pb, _ := k.Spawn(progB.Name())
	workload.SetIterations(pa, 12)
	workload.SetIterations(pb, 1<<30)
	wantA := referenceFingerprint(t, NewSoftwareSuspend(), progA, 12)
	k.RunFor(5 * simtime.Millisecond)
	if pa.State == proc.StateZombie {
		t.Fatal("finished too early")
	}

	swap := localTarget()
	imgs, err := m.Suspend(k, swap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 2 {
		t.Fatalf("saved %d images, want 2", len(imgs))
	}
	if !k.Halted() {
		t.Fatal("machine still powered on")
	}
	cpu := pa.CPUTime
	k.RunFor(10 * simtime.Millisecond)
	if pa.CPUTime != cpu {
		t.Fatal("work happened while powered down")
	}

	// Power up and resume everything.
	procs, err := m.Resume(k, imgs)
	if err != nil {
		t.Fatal(err)
	}
	var ra *proc.Process
	for _, p := range procs {
		if p.PID == pa.PID {
			ra = p
		}
	}
	if ra == nil {
		t.Fatal("process A not resumed")
	}
	if !k.RunUntilExit(ra, k.Now().Add(simtime.Minute)) {
		t.Fatal("resumed process stuck")
	}
	if got := workload.Fingerprint(ra); got != wantA {
		t.Fatalf("resumed fingerprint %#x want %#x", got, wantA)
	}
}

func TestTICKIncrementalChainsShrink(t *testing.T) {
	m := NewTICK()
	prog := workload.Sparse{MiB: 4, WriteFrac: 0.05, Seed: 21}
	k := newMachine("k", prog)
	m.Install(k)
	p, _ := k.Spawn(prog.Name())
	workload.SetIterations(p, 1<<30)
	tgt := remoteTarget()

	var sizes []int
	for i := 0; i < 3; i++ {
		target := p.Regs().PC + 2
		for p.Regs().PC < target {
			k.RunFor(100 * simtime.Microsecond)
		}
		tk, err := mechanism.Checkpoint(m, k, p, tgt, nil)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, tk.Stats.PayloadBytes)
		if i == 0 && tk.Img.Mode != checkpoint.ModeFull {
			t.Fatal("first image not full")
		}
		if i > 0 && tk.Img.Mode != checkpoint.ModeIncremental {
			t.Fatal("later image not incremental")
		}
	}
	if sizes[1] >= sizes[0]/2 || sizes[2] >= sizes[0]/2 {
		t.Fatalf("deltas not much smaller than full: %v", sizes)
	}
}

func TestTICKAutomaticInitiation(t *testing.T) {
	m := NewTICK()
	prog := workload.Sparse{MiB: 2, WriteFrac: 0.1, Seed: 33}
	k := newMachine("k", prog)
	m.Install(k)
	p, _ := k.Spawn(prog.Name())
	workload.SetIterations(p, 1<<30)
	tgt := localTarget()

	var completed int
	stop, err := m.Attach(k, p, tgt, nil, 10*simtime.Millisecond, func(tk *mechanism.Ticket) {
		if tk.Err == nil {
			completed++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunFor(55 * simtime.Millisecond)
	stop()
	if completed < 3 {
		t.Fatalf("automatic checkpoints completed = %d, want ≥3", completed)
	}
	n := completed
	k.RunFor(30 * simtime.Millisecond)
	if completed != n {
		t.Fatal("checkpoints continued after detach")
	}
	if len(tgt.List()) < 3 {
		t.Fatalf("stored objects: %v", tgt.List())
	}

	// A first capture that outlasts the period: the tick that finds it
	// still in flight is skipped rather than queued behind it, so no two
	// checkpoints are acknowledged at one instant and no delta comes out
	// empty.
	big := workload.Sparse{MiB: 16, WriteFrac: 0.03, Seed: 11}
	m, k = NewTICK(), newMachine("big", big)
	m.Install(k)
	p, _ = k.Spawn(big.Name())
	workload.SetIterations(p, 1<<30)
	var acks []simtime.Time
	var tks []*mechanism.Ticket
	stop, err = m.Attach(k, p, remoteTarget(), nil, 10*simtime.Millisecond, func(tk *mechanism.Ticket) {
		acks, tks = append(acks, k.Now()), append(tks, tk)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.RunFor(60 * simtime.Millisecond)
	stop()
	if len(tks) < 3 || tks[0].CaptureTime() <= 10*simtime.Millisecond {
		t.Fatalf("%d checkpoints, the first capturing for %v: want ≥3 and longer than the period", len(tks), tks[0].CaptureTime())
	}
	for i, tk := range tks {
		if tk.Err != nil {
			t.Fatalf("checkpoint %d: %v", i+1, tk.Err)
		}
		if i > 0 && acks[i] == acks[i-1] {
			t.Errorf("checkpoints %d and %d both acknowledged at %v", i, i+1, acks[i])
		}
		if tk.Stats.PayloadBytes == 0 {
			t.Errorf("checkpoint %d (%v) carries an empty delta", i+1, tk.Img.Mode)
		}
	}
}

func TestKernelThreadFIFOBeatsOtherUnderLoad(t *testing.T) {
	// E4's core claim: a SCHED_FIFO checkpoint thread's latency is
	// insensitive to background load; a SCHED_OTHER one degrades.
	latency := func(policy proc.Policy, load int) simtime.Duration {
		prio := 50
		if policy == proc.SchedOther {
			prio = 20 // ordinary time-sharing priority
		}
		m := NewCRAKWithPolicy(policy, prio)
		target := workload.Sparse{MiB: 2, WriteFrac: 0.2, Seed: 3}
		progs := []kernel.Program{target}
		for i := 0; i < load; i++ {
			progs = append(progs, workload.Spin{Tag: string(rune('a' + i))})
		}
		k := newMachine("k", progs...)
		m.Install(k)
		p, _ := k.Spawn(target.Name())
		workload.SetIterations(p, 1<<30)
		for i := 0; i < load; i++ {
			bg, _ := k.Spawn(workload.Spin{Tag: string(rune('a' + i))}.Name())
			workload.SetIterations(bg, 1<<30)
		}
		k.RunFor(5 * simtime.Millisecond)
		tk, err := mechanism.Checkpoint(m, k, p, localTarget(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return tk.Total()
	}
	fifoIdle := latency(proc.SchedFIFO, 0)
	fifoLoaded := latency(proc.SchedFIFO, 8)
	otherLoaded := latency(proc.SchedOther, 8)
	if otherLoaded <= fifoLoaded {
		t.Fatalf("SCHED_OTHER thread (%v) should be slower than FIFO (%v) under load", otherLoaded, fifoLoaded)
	}
	// FIFO latency should grow only mildly with load.
	if fifoLoaded > 3*fifoIdle {
		t.Fatalf("FIFO latency grew too much with load: %v vs %v", fifoLoaded, fifoIdle)
	}
}

func TestTable1Probe(t *testing.T) {
	// Features() of the twelve implementations must reproduce Table 1
	// exactly; see cmd/crsurvey for the rendered matrix.
	probed := []mechanism.Mechanism{
		NewVMADump(0, nil), NewBProc(), NewEPCKPT(), NewCRAK(), NewUCLiK(),
		NewCHPOX(), NewZAP(), NewBLCR(), NewLAMMPI(), NewPsncRC(),
		NewSoftwareSuspend(), NewCheckpointFork(0, nil),
	}
	features := make([]taxonomy.Features, 0, len(probed))
	for _, m := range probed {
		features = append(features, m.Features())
	}
	if diffs := taxonomy.DiffTable(features); len(diffs) != 0 {
		t.Fatalf("Table 1 mismatches:\n%v", diffs)
	}
}

func TestTICKChainBounded(t *testing.T) {
	m := NewTICK()
	m.MaxChain = 3
	prog := workload.Sparse{MiB: 2, WriteFrac: 0.05, Seed: 2}
	k := newMachine("k", prog)
	m.Install(k)
	p, _ := k.Spawn(prog.Name())
	workload.SetIterations(p, 1<<30)
	tgt := localTarget()

	var leaf string
	for i := 0; i < 8; i++ {
		target := p.Regs().PC + 1
		for p.Regs().PC < target {
			k.RunFor(100 * simtime.Microsecond)
		}
		tk, err := mechanism.Checkpoint(m, k, p, tgt, nil)
		if err != nil {
			t.Fatal(err)
		}
		leaf = tk.Img.ObjectName()
	}
	// With MaxChain=3, chains never exceed 3 images (full + 2 deltas).
	chain, err := checkpoint.LoadChain(tgt, nil, leaf)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) > 3 {
		t.Fatalf("chain length %d exceeds MaxChain", len(chain))
	}
	// Restart from the bounded chain still resumes correctly.
	dst := newMachine("dst", prog)
	p2, err := m.Restart(dst, chain, true)
	if err != nil {
		t.Fatal(err)
	}
	dst.RunFor(simtime.Millisecond)
	if p2.Regs().PC < 7 {
		t.Fatalf("restored at iteration %d, want ≥7", p2.Regs().PC)
	}
}
