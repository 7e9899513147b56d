// Package mechtest holds the family table: one row per checkpoint/restart
// system of packages syslevel and userlevel (two of them in a second
// configuration), each pinning what a caller can observe of one
// checkpoint/restart round trip and of the system's refusals. The
// syslevel and userlevel tests run its rows (Run), so every system goes
// through the same harness.
package mechtest

import (
	"errors"
	"hash/fnv"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/costmodel"
	"repro/internal/mechanism"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/syslevel"
	"repro/internal/taxonomy"
	"repro/internal/userlevel"
	"repro/internal/workload"
)

// Row pins one system. Times are on the simulated clock at capture and
// restore width 1.
type Row struct {
	Name string
	Mk   func() mechanism.Mechanism
	// Store is the round trip's target: "local", "remote", or "" for the
	// systems with no stable storage.
	Store string
	// Mask is the optional-interface set (see interfaces).
	Mask int
	// Image is the FNV-64a of the checkpoint's encoded image.
	Image uint64
	// Capture, Total and Restart are the ticket's capture time, its
	// request-to-completion time and the time Restart charged.
	Capture, Total, Restart simtime.Duration
	// Fingerprint is the uninterrupted reference run's; the restarted
	// run must end on it too.
	Fingerprint uint64
	// Refusals names the errors.Is kind of a Request to a fresh,
	// uninstalled instance, of one for a process that skipped Prepare
	// and Setup, and of one to a remote target where the system's Table
	// 1 storage column lacks remote ("-" where it has it).
	Refusals [3]string
}

// Family is the table.
var Family = []Row{
	{"VMADump-local", func() mechanism.Mechanism { return syslevel.NewVMADump(0, nil) }, "local", 0, 0x5af573bb4aa9720d, 1539630, 1545330, 1539413, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "Unsupported", "-"}},
	{"VMADump-remote", func() mechanism.Mechanism { return syslevel.NewVMADump(0, nil) }, "remote", 0, 0x5af573bb4aa9720d, 1539630, 1545330, 1539413, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "Unsupported", "-"}},
	{"BPROC", func() mechanism.Mechanism { return syslevel.NewBProc() }, "", 0, 0x204d29a60f4c86f5, 1539630, 1545330, 1539413, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "Unsupported", "Unsupported"}},
	{"EPCKPT", func() mechanism.Mechanism { return syslevel.NewEPCKPT() }, "remote", 0, 0x481679b8370d9c55, 1539630, 1544630, 1539413, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "NotRegistered", "-"}},
	{"CRAK", func() mechanism.Mechanism { return syslevel.NewCRAK() }, "local", 15, 0x816a02f6b4878408, 1539630, 1544630, 1539413, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "ok", "-"}},
	{"UCLiK", func() mechanism.Mechanism { return syslevel.NewUCLiK() }, "local", 14, 0x680647145fee0f79, 1539630, 1544630, 1539413, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "ok", "Unsupported"}},
	{"CHPOX", func() mechanism.Mechanism { return syslevel.NewCHPOX() }, "local", 0, 0x1122bff34ca96208, 1539630, 1544630, 1539413, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "NotRegistered", "Unsupported"}},
	{"ZAP", func() mechanism.Mechanism { return syslevel.NewZAP() }, "", 14, 0x4ab6c5209365ef27, 1539630, 1544630, 1539413, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "ok", "Unsupported"}},
	{"BLCR", func() mechanism.Mechanism { return syslevel.NewBLCR() }, "remote", 14, 0x554583c8b300da02, 1539630, 1550630, 1539413, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "NotRegistered", "-"}},
	{"LAM/MPI", func() mechanism.Mechanism { return syslevel.NewLAMMPI() }, "local", 14, 0xffc1dcd57bfe368a, 1539630, 1550630, 1539413, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "NotRegistered", "-"}},
	{"PsncR/C", func() mechanism.Mechanism { return syslevel.NewPsncRC() }, "local", 14, 0x98638ad2f3bf3f5f, 1539630, 1544630, 1539413, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "ok", "Unsupported"}},
	{"Software Suspend", func() mechanism.Mechanism { return syslevel.NewSoftwareSuspend() }, "local", 0, 0xd360da1d8bb8560a, 1639630, 1639630, 1539413, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "ok", "Unsupported"}},
	{"Checkpoint", func() mechanism.Mechanism { return syslevel.NewCheckpointFork(0, nil) }, "local", 0, 0xb153d9fd5ec7307c, 56222140, 56227840, 1539413, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "Unsupported", "Unsupported"}},
	{"TICK", func() mechanism.Mechanism { return syslevel.NewTICK() }, "remote", 15, 0xb3728a38f5adc17, 1805892, 1810892, 1805653, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "ok", "-"}},
	{"libckpt", func() mechanism.Mechanism { return userlevel.NewLibCkpt(0, nil, false) }, "local", 0, 0xf786911f3327a18b, 56051752, 56056752, 1539413, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "Unsupported", "ok"}},
	{"libckpt-incremental", func() mechanism.Mechanism { return userlevel.NewLibCkpt(0, nil, true) }, "local", 0, 0x38c539195bb380c8, 63130414, 63135414, 1805653, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "Unsupported", "ok"}},
	{"libtckpt", func() mechanism.Mechanism { return userlevel.NewLibTckpt(0, nil) }, "local", 0, 0xbad94b08d90001ef, 56051815, 56056815, 1539413, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "Unsupported", "ok"}},
	{"condor", func() mechanism.Mechanism { return userlevel.NewCondorStyle() }, "local", 0, 0x585a11a02a2257c0, 56052473, 56061473, 1539413, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "NotRegistered", "-"}},
	{"esky", func() mechanism.Mechanism { return userlevel.NewEskyStyle(50*simtime.Millisecond, nil) }, "local", 0, 0x381bd1cd294cbe88, 56052348, 56061348, 1539413, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "NotRegistered", "ok"}},
	{"preload", func() mechanism.Mechanism { return userlevel.NewPreloadShim() }, "local", 0, 0xc32069dc7225db8f, 56052515, 56061515, 1539413, 0x5251b4cbfcd232d4, [3]string{"NotInstalled", "NotRegistered", "ok"}},
}

// Run runs every row whose system sits in context ctx.
func Run(t *testing.T, ctx taxonomy.Context) {
	for _, r := range Family {
		if r.Mk().Features().Context == ctx {
			r := r
			t.Run(r.Name, func(t *testing.T) { r.check(t) })
		}
	}
}

// interfaces returns the bitmask of optional mechanism interfaces m
// exposes: delta requests 1, capture width 2, restore width 4, lazy
// restart 8 (the order bench's mechanism wrapper uses).
func interfaces(m mechanism.Mechanism) int {
	mask := 0
	if _, ok := m.(mechanism.DeltaRequester); ok {
		mask |= 1
	}
	if _, ok := m.(mechanism.CaptureParallelizer); ok {
		mask |= 2
	}
	if _, ok := m.(mechanism.RestoreParallelizer); ok {
		mask |= 4
	}
	if _, ok := m.(mechanism.LazyRestarter); ok {
		mask |= 8
	}
	return mask
}

// iters is the round trip's run length; the checkpoint lands halfway.
const iters = 20

var prog = workload.Sparse{MiB: 2, WriteFrac: 0.2, Seed: 9}

func machine(name string, progs ...kernel.Program) *kernel.Kernel {
	reg := kernel.NewRegistry()
	for _, p := range progs {
		reg.MustRegister(p)
	}
	return kernel.New(kernel.DefaultConfig(name), costmodel.Default2005(), reg)
}

func (r Row) target() storage.Target {
	switch r.Store {
	case "local":
		return storage.NewLocal("disk0", costmodel.Default2005(), nil)
	case "remote":
		return remote()
	}
	return nil
}

func remote() storage.Target {
	return storage.NewRemote("net0", storage.NewServer("srv", costmodel.Default2005()))
}

// launch installs m on a fresh machine (twice: Install is idempotent),
// spawns the prepared program and runs Setup.
func launch(t *testing.T, m mechanism.Mechanism, name string) (*kernel.Kernel, *proc.Process, kernel.Program) {
	t.Helper()
	prepared := m.Prepare(prog)
	k := machine(name, prepared)
	for i := 0; i < 2; i++ {
		if err := m.Install(k); err != nil {
			t.Fatalf("install %d: %v", i+1, err)
		}
	}
	p, err := k.Spawn(prepared.Name())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Setup(k, p); err != nil {
		t.Fatal(err)
	}
	workload.SetIterations(p, iters)
	return k, p, prepared
}

// Ready installs m on a fresh machine, launches the program it prepares
// and runs it two iterations in, past the first compiled-in checkpoint
// call of the systems that have one.
func Ready(t *testing.T, m mechanism.Mechanism) (*kernel.Kernel, *proc.Process) {
	t.Helper()
	k, p, _ := launch(t, m, "ready")
	for p.Regs().PC < 2 {
		k.RunFor(100 * simtime.Microsecond)
	}
	return k, p
}

func (r Row) check(t *testing.T) {
	m := r.Mk()
	if got := interfaces(m); got != r.Mask {
		t.Errorf("exposes %04b, want %04b", got, r.Mask)
	}

	// The uninterrupted reference run.
	k, p, _ := launch(t, r.Mk(), "ref")
	if !k.RunUntilExit(p, k.Now().Add(10*simtime.Minute)) || p.ExitCode != 0 {
		t.Fatalf("reference run: exit %d, pc %d", p.ExitCode, p.Regs().PC)
	}
	fingerprint := workload.Fingerprint(p)

	// Checkpoint halfway, then restart on a second machine and finish.
	if c, ok := m.(mechanism.CaptureParallelizer); ok {
		c.SetCaptureParallelism(1)
	}
	if c, ok := m.(mechanism.RestoreParallelizer); ok {
		c.SetRestoreParallelism(1)
	}
	k, p, prepared := launch(t, m, "src")
	for p.Regs().PC < iters/2 && p.State != proc.StateZombie {
		k.RunFor(100 * simtime.Microsecond)
	}
	if p.State == proc.StateZombie {
		t.Fatal("finished before checkpoint")
	}
	tgt := r.target()
	tk, err := mechanism.Checkpoint(m, k, p, tgt, nil)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if tk.Img.Mechanism != m.Name() {
		t.Errorf("image mechanism %q, want %q", tk.Img.Mechanism, m.Name())
	}
	blob, err := tk.Img.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(blob)
	chain := []*checkpoint.Image{tk.Img}
	if tgt != nil {
		if chain, err = checkpoint.LoadChain(tgt, nil, tk.Img.ObjectName()); err != nil {
			t.Fatal(err)
		}
	}
	dst := machine("dst", prepared)
	if err := m.Install(dst); err == nil {
		t.Error("installed on a second kernel")
	}
	start := dst.Now()
	p2, err := m.Restart(dst, chain, true)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	restart := dst.Now().Sub(start)
	if !dst.RunUntilExit(p2, dst.Now().Add(10*simtime.Minute)) || p2.ExitCode != 0 {
		t.Fatalf("restarted run: exit %d, pc %d", p2.ExitCode, p2.Regs().PC)
	}
	if got := workload.Fingerprint(p2); got != fingerprint {
		t.Errorf("restarted run ends on %#x, the reference on %#x", got, fingerprint)
	}
	if h.Sum64() != r.Image || tk.CaptureTime() != r.Capture || tk.Total() != r.Total || restart != r.Restart || fingerprint != r.Fingerprint {
		t.Errorf("round trip: image %#x, capture %d ns, total %d ns, restart %d ns, fingerprint %#x; want %#x, %d ns, %d ns, %d ns, %#x",
			h.Sum64(), int64(tk.CaptureTime()), int64(tk.Total()), int64(restart), fingerprint,
			r.Image, int64(r.Capture), int64(r.Total), int64(r.Restart), r.Fingerprint)
	}

	if got := r.refusals(t, m, k, p); got != r.Refusals {
		t.Errorf("refusals %q, want %q", got, r.Refusals)
	}
}

// refusals probes the three refusals, each with only its own condition
// failing; m is installed on k, and p is set up and past a checkpoint.
func (r Row) refusals(t *testing.T, m mechanism.Mechanism, k *kernel.Kernel, p *proc.Process) [3]string {
	var got [3]string
	got[0] = kind(r.Mk().Request(k, p, r.target(), nil))

	fresh := r.Mk()
	k2 := machine("bare", prog)
	if err := fresh.Install(k2); err != nil {
		t.Fatal(err)
	}
	bare, err := k2.Spawn(prog.Name())
	if err != nil {
		t.Fatal(err)
	}
	got[1] = kind(fresh.Request(k2, bare, r.target(), nil))

	got[2] = "-"
	for _, s := range m.Features().Storage {
		if s == storage.KindRemote {
			return got
		}
	}
	got[2] = kind(m.Request(k, p, remote(), nil))
	return got
}

// kind names the errors.Is kind of a Request's refusal, whether Request
// returned it or completed the ticket with it at once.
func kind(tk *mechanism.Ticket, err error) string {
	if err == nil && tk != nil && tk.Done {
		err = tk.Err
	}
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, mechanism.ErrNotInstalled):
		return "NotInstalled"
	case errors.Is(err, mechanism.ErrNotRegistered):
		return "NotRegistered"
	case errors.Is(err, mechanism.ErrUnsupported):
		return "Unsupported"
	}
	return "untyped"
}
