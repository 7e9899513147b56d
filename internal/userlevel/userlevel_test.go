package userlevel

import (
	"errors"
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

func TestLibCkptPeriodicAutomatic(t *testing.T) {
	tgt := localTarget()
	m := NewLibCkpt(3, tgt, false)
	prog := workload.Dense{MiB: 1}
	prepared := m.Prepare(prog)
	k := newMachine("k", prepared)
	m.Install(k)
	p, _ := k.Spawn(prepared.Name())
	workload.SetIterations(p, 12)
	if !k.RunUntilExit(p, k.Now().Add(simtime.Minute)) {
		t.Fatal("stuck")
	}
	// Checkpoint points at 3,6,9 (12 is the exit boundary; hook fires
	// before the step that exits).
	if got := len(tgt.List()); got < 3 {
		t.Fatalf("stored %d periodic checkpoints, want ≥3 (%v)", got, tgt.List())
	}
}

func TestLibCkptRefusesUnlinkedApp(t *testing.T) {
	m := NewLibCkpt(0, nil, false)
	prog := workload.Dense{MiB: 1}
	k := newMachine("k", prog) // not prepared/relinked
	m.Install(k)
	p, _ := k.Spawn(prog.Name())
	if _, err := m.Request(k, p, localTarget(), nil); !errors.Is(err, mechanism.ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
}

func TestSingleThreadedOnlyRefusesThreads(t *testing.T) {
	prog := workload.MultiThreaded{MiB: 1, NThreads: 2, Iterations: 1 << 20}
	m := NewCondorStyle()
	k := newMachine("k", prog)
	m.Install(k)
	p, _ := k.Spawn(prog.Name())
	m.Setup(k, p)
	k.RunFor(simtime.Millisecond)
	tk, err := m.Request(k, p, localTarget(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mechanism.WaitTicket(k, tk, simtime.Minute)
	if !errors.Is(tk.Err, mechanism.ErrUnsupported) {
		t.Fatalf("ticket err = %v, want ErrUnsupported", tk.Err)
	}

	// libtckpt handles the same process.
	mt := NewLibTckpt(0, nil)
	prepared := mt.Prepare(prog)
	k2 := newMachine("k2", prepared)
	mt.Install(k2)
	p2, _ := k2.Spawn(prepared.Name())
	k2.RunFor(2 * simtime.Millisecond)
	tk2, err := mechanism.Checkpoint(mt, k2, p2, localTarget(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tk2.Img.Threads) != 2 {
		t.Fatalf("libtckpt captured %d threads", len(tk2.Img.Threads))
	}
}

func TestCondorDeadlocksAgainstMallocHeavyApp(t *testing.T) {
	// §3: the Condor-style handler uses non-reentrant functions; if the
	// signal lands while the app is inside malloc, the process deadlocks.
	m := NewCondorStyle()
	prog := workload.Allocator{MiB: 1} // alternates non-reentrant sections
	k := newMachine("k", prog)
	m.Install(k)
	p, _ := k.Spawn(prog.Name())
	m.Setup(k, p)
	k.RunFor(simtime.Millisecond)

	// Force the hazard deterministically: the process is inside malloc.
	p.InNonReentrant = true
	if _, err := m.Request(k, p, localTarget(), nil); err != nil {
		t.Fatal(err)
	}
	k.RunFor(10 * simtime.Millisecond)
	if k.DeadlockCount != 1 {
		t.Fatalf("DeadlockCount = %d, want 1", k.DeadlockCount)
	}
	if p.State != proc.StateBlocked {
		t.Fatalf("process state %v, want deadlocked (blocked)", p.State)
	}
}

func TestEskyPeriodicTimerCheckpoints(t *testing.T) {
	tgt := localTarget()
	m := NewEskyStyle(5*simtime.Millisecond, tgt)
	prog := workload.Dense{MiB: 1}
	k := newMachine("k", prog)
	m.Install(k)
	p, _ := k.Spawn(prog.Name())
	m.Setup(k, p)
	workload.SetIterations(p, 1<<30)
	k.RunFor(200 * simtime.Millisecond)
	if got := len(tgt.List()); got < 3 {
		t.Fatalf("SIGALRM checkpoints stored = %d, want ≥3", got)
	}
}

func TestUserLevelCannotCaptureKernelState(t *testing.T) {
	m := NewCondorStyle()
	prog := workload.ResourceUser{MiB: 1, Iterations: 0, UseSocket: true}
	k := newMachine("k", prog)
	m.Install(k)
	p, _ := k.Spawn(prog.Name())
	m.Setup(k, p)
	k.RunFor(simtime.Millisecond)
	tk, err := mechanism.Checkpoint(m, k, p, localTarget(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tk.Img.Sockets) != 0 {
		t.Fatal("user-level capture reached kernel socket state")
	}
	// Restarting on a fresh machine: the socket is gone and the program
	// detects it (§3's limitation).
	dst := newMachine("dst", prog)
	p2, err := m.Restart(dst, []*checkpoint.Image{tk.Img}, true)
	if err != nil {
		t.Fatal(err)
	}
	dst.RunUntilExit(p2, dst.Now().Add(simtime.Minute))
	if p2.ExitCode != workload.ExitSocketLost {
		t.Fatalf("exit %d, want ExitSocketLost", p2.ExitCode)
	}
}

func TestUserVsKernelSyscallFootprint(t *testing.T) {
	// §3's efficiency argument, measured: a user-level checkpoint needs
	// dozens of syscalls (maps, sbrk, lseeks, sigpending, mprotects); the
	// kernel-side accessor needs none.
	prog := workload.Dense{MiB: 4}
	m := NewCondorStyle()
	k := newMachine("k", prog)
	m.Install(k)
	p, _ := k.Spawn(prog.Name())
	m.Setup(k, p)
	workload.SetIterations(p, 1<<30)
	k.RunFor(5 * simtime.Millisecond)

	before := k.SyscallCount
	tk, err := mechanism.Checkpoint(m, k, p, localTarget(), nil)
	if err != nil {
		t.Fatal(err)
	}
	used := k.SyscallCount - before
	if used < 5 {
		t.Fatalf("user-level checkpoint used only %d syscalls", used)
	}
	if tk.Stats.PayloadBytes == 0 {
		t.Fatal("no payload captured")
	}
}

func TestIncrementalLibCkptShrinksDeltas(t *testing.T) {
	tgt := localTarget()
	m := NewLibCkpt(2, tgt, true)
	prog := workload.Sparse{MiB: 4, WriteFrac: 0.05, Seed: 5}
	prepared := m.Prepare(prog)
	k := newMachine("k", prepared)
	m.Install(k)
	p, _ := k.Spawn(prepared.Name())
	workload.SetIterations(p, 11)
	if !k.RunUntilExit(p, k.Now().Add(simtime.Minute)) {
		t.Fatal("stuck")
	}
	objs := tgt.List()
	if len(objs) < 3 {
		t.Fatalf("objects: %v", objs)
	}
	first, _ := tgt.ObjectSize(objs[0])
	last, _ := tgt.ObjectSize(objs[len(objs)-1])
	if last >= first/2 {
		t.Fatalf("incremental delta %d not much smaller than full %d", last, first)
	}
}

func TestPreloadShimOverhead(t *testing.T) {
	prog := workload.Allocator{MiB: 1, Iterations: 500}
	run := func(wrap bool) simtime.Duration {
		m := NewPreloadShim()
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
	if plain, shim := run(false), run(true); shim <= plain {
		t.Fatalf("preload run (%v) should be slower than plain (%v)", shim, plain)
	}
}

func TestFeaturesClassification(t *testing.T) {
	for _, m := range []mechanism.Mechanism{
		NewLibCkpt(0, nil, false), NewCondorStyle(), NewEskyStyle(simtime.Second, nil),
		NewPreloadShim(), NewLibTckpt(0, nil),
	} {
		f := m.Features()
		if f.Context != taxonomy.UserLevel {
			t.Errorf("%s: context %v, want user-level", m.Name(), f.Context)
		}
		if f.KernelModule {
			t.Errorf("%s: user-level scheme claims a kernel module", m.Name())
		}
	}
	if !NewLibCkpt(0, nil, true).Features().Incremental {
		t.Error("incremental libckpt not flagged")
	}
	if NewPreloadShim().Features().Agent != taxonomy.AgentPreload {
		t.Error("preload agent misclassified")
	}
}
