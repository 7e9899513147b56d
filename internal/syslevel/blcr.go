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

// NewBLCR returns a BLCR instance. Its checkpoint thread runs the
// application's registered callback just before each capture (the
// handler's job in real BLCR is to let the application quiesce
// resources), and cr_restart re-resolves the callback handler from the
// reloaded library.
func NewBLCR() *BLCR {
	m := &BLCR{threadMech{name: "BLCR", devPath: "/dev/blcr", policy: proc.SchedFIFO, rtprio: 50,
		restore: checkpoint.RestoreOptions{Handlers: map[string]*sig.Handler{
			blcrHandlerName: {Name: blcrHandlerName, Fn: func(ctx any, s sig.Signal) {}},
		}}}}
	m.preCapture = func(req *ckptRequest) {
		if disp := req.target.Sig.Disposition(sig.SIGUSR1); disp.Handler != nil && disp.Handler.Name == blcrHandlerName {
			m.k.Charge(m.k.CM.SignalDeliver+m.k.CM.SignalReturn, "blcr-callback")
		}
	}
	m.outer = m
	return m
}

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

// Setup implements mechanism.Mechanism: the executable is unchanged (the
// library loads at run time), but Setup is mandatory — the shared library
// must be loaded and a handler registered for a general
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
	return m.ioctl(k, p, tgt, env, nil, 0, false)
}

// LAMMPI models the LAM/MPI checkpoint/restart framework [32]: BLCR per
// process, coordinated across the ranks of an MPI job by the MPI layer
// (package mpi drives the coordination; this type carries the Table 1
// row and delegates single-process operations to BLCR). It is transparent
// to the application but not to the MPI library, whose functions had to
// be modified to automate BLCR's initialization phase: the modified
// library runs BLCR's Setup at MPI_Init, so the application itself is
// untouched.
type LAMMPI struct {
	*BLCR
}

// NewLAMMPI returns a LAM/MPI instance over a fresh BLCR.
func NewLAMMPI() *LAMMPI {
	m := &LAMMPI{BLCR: NewBLCR()}
	m.name, m.outer = "LAM/MPI", m
	return m
}

// Features implements mechanism.Mechanism (Table 1 row 9).
func (m *LAMMPI) Features() taxonomy.Features {
	f := m.BLCR.Features()
	f.Name = "LAM/MPI"
	f.ParallelApps = true
	return f
}
