package syslevel

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/mechanism"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simos/sig"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// blcrHandlerName keys BLCR's user-space callback handler for restart
// resolution.
const blcrHandlerName = "blcr-callback"

// BLCR models Berkeley Lab's Linux Checkpoint/Restart [11]: a kernel
// module with a kernel thread reached through /dev ioctl that — unlike
// prior schemes — checkpoints multithreaded processes. It is *not*
// totally transparent: an initialization phase must load a shared library
// and register a signal handler for callbacks before a process can be
// checkpointed.
type BLCR struct {
	threadMech
}

// NewBLCR returns a BLCR instance.
func NewBLCR() *BLCR {
	m := &BLCR{threadMech{name: "BLCR", devPath: "/dev/blcr", policy: proc.SchedFIFO, rtprio: 50}}
	m.optsFor = func() captureOpts { return captureOpts{mech: "BLCR"} }
	return m
}

// Name implements mechanism.Mechanism.
func (m *BLCR) Name() string { return "BLCR" }

// Features implements mechanism.Mechanism (Table 1 row 8: transparency
// "no" because of the init phase).
func (m *BLCR) Features() taxonomy.Features {
	return taxonomy.Features{
		Name: "BLCR", Context: taxonomy.SystemLevel, Agent: taxonomy.AgentKernelThread,
		Storage:       []storage.Kind{storage.KindLocal, storage.KindRemote},
		Initiation:    taxonomy.InitUser,
		KernelModule:  true,
		Multithreaded: true,
	}
}

// ModuleName implements kernel.Module.
func (m *BLCR) ModuleName() string { return "blcr" }

// Load implements kernel.Module.
func (m *BLCR) Load(k *kernel.Kernel) error { return m.load(k) }

// Unload implements kernel.Module.
func (m *BLCR) Unload(k *kernel.Kernel) error { return m.unload(k) }

// Install implements mechanism.Mechanism.
func (m *BLCR) Install(k *kernel.Kernel) error {
	if k.ModuleLoaded(m.ModuleName()) {
		return nil
	}
	if err := k.LoadModule(m); err != nil {
		return err
	}
	// The callback runs just before capture; the handler's job in real
	// BLCR is to let the application quiesce resources.
	m.d.preCapture = func(req *ckptRequest) {
		k := m.threadMech.k
		if disp := req.target.Sig.Disposition(sig.SIGUSR1); disp.Handler != nil && disp.Handler.Name == blcrHandlerName {
			k.Charge(k.CM.SignalDeliver+k.CM.SignalReturn, "blcr-callback")
		}
	}
	return nil
}

// Prepare implements mechanism.Mechanism: the executable is unchanged
// (the library loads at run time), so Prepare is the identity...
func (m *BLCR) Prepare(prog kernel.Program) kernel.Program { return prog }

// Setup implements mechanism.Mechanism: ...but Setup is mandatory — the
// shared library must be loaded and a handler registered for a general
// purpose signal, which is why Table 1 scores BLCR non-transparent.
func (m *BLCR) Setup(k *kernel.Kernel, p *proc.Process) error {
	if m.threadMech.k != k {
		return mechanism.ErrNotInstalled
	}
	// dlopen of libcr plus handler registration.
	k.Charge(6*k.CM.Syscall(), "blcr-init")
	if err := p.Sig.SetHandler(sig.SIGUSR1, &sig.Handler{
		Name: blcrHandlerName,
		Fn:   func(ctx any, s sig.Signal) {}, // quiesce callback
	}); err != nil {
		return err
	}
	p.Registered["blcr"] = true
	return nil
}

// Request implements mechanism.Mechanism: cr_checkpoint's ioctl with the
// target pid; fails if the init phase was skipped.
func (m *BLCR) Request(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*mechanism.Ticket, error) {
	if !p.Registered["blcr"] {
		return nil, fmt.Errorf("%w: BLCR: process did not run the initialization phase (library + handler)", mechanism.ErrNotRegistered)
	}
	return m.requestDelta(m, k, p, tgt, env, nil, 0, false)
}

// Restart implements mechanism.Mechanism: cr_restart re-resolves the
// callback handler from the reloaded library.
func (m *BLCR) Restart(k *kernel.Kernel, chain []*checkpoint.Image, enqueue bool) (*proc.Process, error) {
	return checkpoint.Restore(k, chain, checkpoint.RestoreOptions{
		Enqueue:     enqueue,
		Parallelism: m.restorePar,
		Handlers: map[string]*sig.Handler{
			blcrHandlerName: {Name: blcrHandlerName, Fn: func(ctx any, s sig.Signal) {}},
		},
	})
}

// LAMMPI models the LAM/MPI checkpoint/restart framework [32]: BLCR per
// process, coordinated across the ranks of an MPI job by the MPI layer
// (package mpi drives the coordination; this type carries the Table 1
// row and delegates single-process operations to BLCR). It is transparent
// to the application but not to the MPI library, whose functions had to
// be modified to automate BLCR's initialization phase.
type LAMMPI struct {
	*BLCR
}

// NewLAMMPI returns a LAM/MPI instance over a fresh BLCR.
func NewLAMMPI() *LAMMPI {
	m := &LAMMPI{BLCR: NewBLCR()}
	m.optsFor = func() captureOpts { return captureOpts{mech: "LAM/MPI"} }
	return m
}

// Name implements mechanism.Mechanism.
func (m *LAMMPI) Name() string { return "LAM/MPI" }

// Features implements mechanism.Mechanism (Table 1 row 9).
func (m *LAMMPI) Features() taxonomy.Features {
	f := m.BLCR.Features()
	f.Name = "LAM/MPI"
	f.ParallelApps = true
	return f
}

// Setup implements mechanism.Mechanism: the modified MPI library runs
// BLCR's init phase automatically at MPI_Init — the application itself
// is untouched.
func (m *LAMMPI) Setup(k *kernel.Kernel, p *proc.Process) error {
	return m.BLCR.Setup(k, p)
}
