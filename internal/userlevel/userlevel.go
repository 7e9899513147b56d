// Package userlevel implements the user-level checkpointing schemes of §3:
// library-based checkpointing with compiled-in checkpoint calls (libckpt,
// libckp, Condor's link-time form), user-level signal handlers driven by
// SIGALRM timers (libckpt, Esky) or general-purpose signals (Condor:
// SIGUSR1/SIGUSR2/SIGUNUSED), LD_PRELOAD interposition, and libtckpt's
// multithreaded variant.
//
// They all share the user-level limitations the paper enumerates: every
// piece of state is extracted through system calls (paying the
// user↔kernel crossing), kernel-persistent state (sockets, shared memory,
// PIDs) is unreachable, handlers that use non-reentrant functions can
// deadlock the application, and the application must be modified,
// relinked, or at least launched specially.
package userlevel

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/mechanism"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simos/sig"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

// userCore is the shared capture machinery.
type userCore struct {
	name string
	k    *kernel.Kernel
	seqs *mechanism.Seqs

	// incremental enables the user-level mprotect/SIGSEGV tracker
	// (libckpt's incremental mode [27]).
	incremental bool
	trackers    map[proc.PID]*checkpoint.WPTracker

	pending map[proc.PID]*pendingReq

	// every is the periodic self-checkpoint interval in iterations
	// (library mechanisms) — automatic initiation at user level.
	every      uint64
	defaultTgt storage.Target
	// multithreadOK marks libtckpt.
	multithreadOK bool
}

type pendingReq struct {
	tgt    storage.Target
	env    *storage.Env
	ticket *mechanism.Ticket
}

func (m *userCore) install(k *kernel.Kernel) error {
	if m.k != nil && m.k != k {
		return fmt.Errorf("userlevel: %s already installed on another kernel", m.name)
	}
	m.k = k
	if m.seqs == nil {
		m.seqs = mechanism.NewSeqs()
		m.pending = make(map[proc.PID]*pendingReq)
		m.trackers = make(map[proc.PID]*checkpoint.WPTracker)
	}
	return nil
}

// captureInProcess performs a user-level capture in the context of the
// checkpointed process itself (library call or signal handler).
func (m *userCore) captureInProcess(ctx *kernel.Context, req *pendingReq) {
	k := ctx.K
	ticket := req.ticket
	ticket.StartedAt = k.Now()
	finish := func(img *checkpoint.Image, st checkpoint.Stats, err error) {
		ticket.Img, ticket.Stats, ticket.Err = img, st, err
		ticket.CompletedAt = k.Now()
		ticket.Done = true
	}
	if ctx.P.Multithreaded() && !m.multithreadOK {
		finish(nil, checkpoint.Stats{}, fmt.Errorf("%w: %s checkpoints single-threaded processes only", mechanism.ErrUnsupported, m.name))
		return
	}
	if req.tgt != nil && !req.tgt.Available() {
		finish(nil, checkpoint.Stats{}, fmt.Errorf("userlevel: %s: storage: %w", m.name, storage.ErrTargetUnavailable))
		return
	}

	var trk checkpoint.Tracker
	if m.incremental {
		t, ok := m.trackers[ctx.P.PID]
		if !ok {
			t = checkpoint.NewUserWPTracker(ctx)
			if err := t.Arm(); err != nil {
				finish(nil, checkpoint.Stats{}, err)
				return
			}
			m.trackers[ctx.P.PID] = t
		}
		trk = t
	}

	env := req.env
	if env == nil {
		env = mechanism.StorageEnvFor(ctx)
	}
	seq, parent := m.seqs.Next(ctx.P.PID)
	img, st, err := checkpoint.Capture(checkpoint.Request{
		Acc:       &checkpoint.UserAccessor{Ctx: ctx},
		Trk:       trk,
		Target:    req.tgt,
		Env:       env,
		Mechanism: m.name,
		Hostname:  k.Cfg.Hostname,
		Seq:       seq,
		Parent:    parent,
		Now:       k.Now(),
	})
	if err == nil {
		m.seqs.Commit(img)
	}
	finish(img, st, err)
}

// atPoint is the body of both compiled-in checkpoint calls and signal
// handlers: consume a pending request, or do a periodic checkpoint.
func (m *userCore) atPoint(ctx *kernel.Context) {
	req := m.pending[ctx.P.PID]
	if req != nil {
		delete(m.pending, ctx.P.PID)
	} else if m.defaultTgt != nil {
		req = &pendingReq{tgt: m.defaultTgt, ticket: &mechanism.Ticket{RequestedAt: ctx.K.Now()}}
	} else {
		return
	}
	m.captureInProcess(ctx, req)
}

func (m *userCore) newRequest(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*mechanism.Ticket, error) {
	if m.k != k {
		return nil, mechanism.ErrNotInstalled
	}
	t := &mechanism.Ticket{RequestedAt: k.Now()}
	m.pending[p.PID] = &pendingReq{tgt: tgt, env: env, ticket: t}
	return t, nil
}

func (m *userCore) restart(k *kernel.Kernel, chain []*checkpoint.Image, enqueue bool, handlers map[string]*sig.Handler) (*proc.Process, error) {
	return checkpoint.Restore(k, chain, checkpoint.RestoreOptions{Enqueue: enqueue, Handlers: handlers})
}

// LibCkpt models libckpt-class library checkpointing [27]: the
// application is modified and relinked against the checkpoint library,
// which checkpoints at the compiled-in calls. Incremental mode uses
// mprotect + SIGSEGV page tracking, the technique §3 describes.
type LibCkpt struct {
	userCore
}

// NewLibCkpt returns a libckpt instance checkpointing every `every`
// iterations to defaultTgt (automatic initiation); incremental selects
// page-granularity incremental checkpointing.
func NewLibCkpt(every uint64, defaultTgt storage.Target, incremental bool) *LibCkpt {
	return &LibCkpt{userCore{name: "libckpt", every: every, defaultTgt: defaultTgt, incremental: incremental}}
}

// Name implements mechanism.Mechanism.
func (m *LibCkpt) Name() string { return "libckpt" }

// Features implements mechanism.Mechanism.
func (m *LibCkpt) Features() taxonomy.Features {
	return taxonomy.Features{
		Name: "libckpt", Context: taxonomy.UserLevel, Agent: taxonomy.AgentLibrary,
		Incremental: m.incremental,
		Storage:     []storage.Kind{storage.KindLocal},
		Initiation:  taxonomy.InitAutomatic,
	}
}

// Install implements mechanism.Mechanism (nothing kernel-side).
func (m *LibCkpt) Install(k *kernel.Kernel) error { return m.install(k) }

// Prepare implements mechanism.Mechanism: relink against the library —
// checkpoint calls appear at iteration boundaries.
func (m *LibCkpt) Prepare(prog kernel.Program) kernel.Program {
	every := m.every
	if every == 0 {
		every = 1
	}
	return workload.Hooked{
		Inner: prog,
		Label: m.name,
		Every: every,
		Hook: func(ctx *kernel.Context) error {
			ctx.P.Registered[m.name] = true
			m.atPoint(ctx)
			return nil
		},
	}
}

// Setup implements mechanism.Mechanism.
func (m *LibCkpt) Setup(k *kernel.Kernel, p *proc.Process) error { return nil }

// Request implements mechanism.Mechanism: honoured at the next
// compiled-in checkpoint call (the flexibility limitation of §3).
func (m *LibCkpt) Request(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*mechanism.Ticket, error) {
	if !p.Registered[m.name] {
		return nil, fmt.Errorf("%w: libckpt: application not relinked against the checkpoint library", mechanism.ErrUnsupported)
	}
	return m.newRequest(k, p, tgt, env)
}

// Restart implements mechanism.Mechanism.
func (m *LibCkpt) Restart(k *kernel.Kernel, chain []*checkpoint.Image, enqueue bool) (*proc.Process, error) {
	return m.restart(k, chain, enqueue, nil)
}

// LibTckpt models libtckpt [10]: libckpt-style library checkpointing that
// also handles LinuxThreads programs.
type LibTckpt struct {
	LibCkpt
}

// NewLibTckpt returns a libtckpt instance.
func NewLibTckpt(every uint64, defaultTgt storage.Target) *LibTckpt {
	lt := &LibTckpt{LibCkpt{userCore{name: "libtckpt", every: every, defaultTgt: defaultTgt, multithreadOK: true}}}
	return lt
}

// Name implements mechanism.Mechanism.
func (m *LibTckpt) Name() string { return "libtckpt" }

// Features implements mechanism.Mechanism.
func (m *LibTckpt) Features() taxonomy.Features {
	f := m.LibCkpt.Features()
	f.Name = "libtckpt"
	f.Multithreaded = true
	return f
}

// CondorStyle models Condor's signal-driven checkpointing [21]: a handler
// for a general-purpose signal (SIGUSR2 here; Condor also used SIGUSR1
// and SIGUNUSED) performs the checkpoint; user initiation via kill. The
// handler uses non-reentrant C-library functions — the §3 deadlock hazard
// is real and reproducible against malloc-heavy applications.
type CondorStyle struct {
	userCore
	// Signal is the checkpoint signal (default SIGUSR2).
	Signal sig.Signal
}

// NewCondorStyle returns a Condor-style instance.
func NewCondorStyle() *CondorStyle {
	return &CondorStyle{userCore: userCore{name: "condor"}, Signal: sig.SIGUSR2}
}

// Name implements mechanism.Mechanism.
func (m *CondorStyle) Name() string { return "condor" }

// Features implements mechanism.Mechanism.
func (m *CondorStyle) Features() taxonomy.Features {
	return taxonomy.Features{
		Name: "condor", Context: taxonomy.UserLevel, Agent: taxonomy.AgentUserSignal,
		Storage:    []storage.Kind{storage.KindLocal, storage.KindRemote},
		Initiation: taxonomy.InitUser,
	}
}

// Install implements mechanism.Mechanism.
func (m *CondorStyle) Install(k *kernel.Kernel) error { return m.install(k) }

// Prepare implements mechanism.Mechanism: relinking is required, but the
// program body is unchanged; the handler is installed by Setup (the
// library's startup code).
func (m *CondorStyle) Prepare(prog kernel.Program) kernel.Program { return prog }

// handler builds the checkpoint signal handler.
func (m *CondorStyle) handler() *sig.Handler {
	return &sig.Handler{
		Name:             m.name + "-handler",
		UsesNonReentrant: true,
		Fn: func(c any, s sig.Signal) {
			ctx, ok := c.(*kernel.Context)
			if !ok {
				return
			}
			m.atPoint(ctx)
		},
	}
}

// Setup implements mechanism.Mechanism: install the checkpoint handler
// (the relinked library does this from its constructor).
func (m *CondorStyle) Setup(k *kernel.Kernel, p *proc.Process) error {
	if m.k != k {
		return mechanism.ErrNotInstalled
	}
	k.Charge(k.CM.Syscall(), "sigaction")
	if err := p.Sig.SetHandler(m.Signal, m.handler()); err != nil {
		return err
	}
	p.Registered[m.name] = true
	return nil
}

// Request implements mechanism.Mechanism: kill -USR2 <pid>.
func (m *CondorStyle) Request(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*mechanism.Ticket, error) {
	if !p.Registered[m.name] {
		return nil, fmt.Errorf("%w: condor: handler not installed (run Setup)", mechanism.ErrNotRegistered)
	}
	t, err := m.newRequest(k, p, tgt, env)
	if err != nil {
		return nil, err
	}
	if err := k.Kill(p.PID, m.Signal); err != nil {
		delete(m.pending, p.PID)
		return nil, err
	}
	return t, nil
}

// Restart implements mechanism.Mechanism: the restarted process gets the
// handler reinstalled by the library startup path.
func (m *CondorStyle) Restart(k *kernel.Kernel, chain []*checkpoint.Image, enqueue bool) (*proc.Process, error) {
	return m.restart(k, chain, enqueue, map[string]*sig.Handler{
		m.name + "-handler": m.handler(),
	})
}

// EskyStyle models Esky [15]: a SIGALRM timer periodically interrupts the
// application and the handler checkpoints it — automatic initiation from
// user level.
type EskyStyle struct {
	userCore
	// Period is the timer period (renamed from the pre-policy Interval
	// field when cadence configuration moved to policy.Spec; this knob is
	// the mechanism's own alarm period, not a cluster cadence).
	Period simtime.Duration
}

// NewEskyStyle returns an Esky-style instance checkpointing every
// interval to defaultTgt.
func NewEskyStyle(interval simtime.Duration, defaultTgt storage.Target) *EskyStyle {
	return &EskyStyle{
		userCore: userCore{name: "esky", defaultTgt: defaultTgt},
		Period:   interval,
	}
}

// Name implements mechanism.Mechanism.
func (m *EskyStyle) Name() string { return "esky" }

// Features implements mechanism.Mechanism.
func (m *EskyStyle) Features() taxonomy.Features {
	return taxonomy.Features{
		Name: "esky", Context: taxonomy.UserLevel, Agent: taxonomy.AgentUserSignal,
		Storage:    []storage.Kind{storage.KindLocal},
		Initiation: taxonomy.InitAutomatic,
	}
}

// Install implements mechanism.Mechanism.
func (m *EskyStyle) Install(k *kernel.Kernel) error { return m.install(k) }

// Prepare implements mechanism.Mechanism.
func (m *EskyStyle) Prepare(prog kernel.Program) kernel.Program { return prog }

// Setup implements mechanism.Mechanism: install the SIGALRM handler and
// arm the periodic timer.
func (m *EskyStyle) Setup(k *kernel.Kernel, p *proc.Process) error {
	if m.k != k {
		return mechanism.ErrNotInstalled
	}
	h := &sig.Handler{
		Name:             m.name + "-alarm",
		UsesNonReentrant: true,
		Fn: func(c any, s sig.Signal) {
			ctx, ok := c.(*kernel.Context)
			if !ok {
				return
			}
			m.atPoint(ctx)
			ctx.Alarm(m.Period) // re-arm
		},
	}
	if err := p.Sig.SetHandler(sig.SIGALRM, h); err != nil {
		return err
	}
	ctx := &kernel.Context{K: k, P: p, T: p.MainThread()}
	ctx.Alarm(m.Period)
	p.Registered[m.name] = true
	return nil
}

// Request implements mechanism.Mechanism: a user can force an early
// checkpoint by sending SIGALRM.
func (m *EskyStyle) Request(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*mechanism.Ticket, error) {
	if !p.Registered[m.name] {
		return nil, fmt.Errorf("%w: esky: not set up", mechanism.ErrNotRegistered)
	}
	t, err := m.newRequest(k, p, tgt, env)
	if err != nil {
		return nil, err
	}
	if err := k.Kill(p.PID, sig.SIGALRM); err != nil {
		delete(m.pending, p.PID)
		return nil, err
	}
	return t, nil
}

// Restart implements mechanism.Mechanism.
func (m *EskyStyle) Restart(k *kernel.Kernel, chain []*checkpoint.Image, enqueue bool) (*proc.Process, error) {
	return m.restart(k, chain, enqueue, nil)
}

// PreloadShim models the LD_PRELOAD approach of §2: the checkpoint
// library is injected at load time — no recompilation or relinking — and
// installs its signal handlers itself, but pays interposition overhead on
// every system call it wraps to shadow kernel state (mmap, open, dup...).
type PreloadShim struct {
	CondorStyle
	// OverheadNS is charged per intercepted syscall.
	OverheadNS int64
}

// NewPreloadShim returns an LD_PRELOAD-based instance.
func NewPreloadShim() *PreloadShim {
	s := &PreloadShim{OverheadNS: 400}
	s.userCore = userCore{name: "preload"}
	s.Signal = sig.SIGUSR2
	return s
}

// Name implements mechanism.Mechanism.
func (m *PreloadShim) Name() string { return "preload" }

// Features implements mechanism.Mechanism.
func (m *PreloadShim) Features() taxonomy.Features {
	return taxonomy.Features{
		Name: "preload", Context: taxonomy.UserLevel, Agent: taxonomy.AgentPreload,
		Transparent: true, // no recompile/relink; launched with LD_PRELOAD
		Storage:     []storage.Kind{storage.KindLocal},
		Initiation:  taxonomy.InitUser,
	}
}

// Prepare implements mechanism.Mechanism: the preloaded library wraps
// libc entry points, charging interposition cost per syscall.
func (m *PreloadShim) Prepare(prog kernel.Program) kernel.Program {
	return &interposer{inner: prog, overheadNS: m.OverheadNS}
}

type interposer struct {
	inner      kernel.Program
	overheadNS int64
}

// Name implements kernel.Program (identity preserved for restart).
func (s *interposer) Name() string { return s.inner.Name() }

// Init implements kernel.Program.
func (s *interposer) Init(ctx *kernel.Context) error { return s.inner.Init(ctx) }

// Step implements kernel.Program.
func (s *interposer) Step(ctx *kernel.Context) (kernel.Status, error) {
	before := ctx.K.SyscallCount
	st, err := s.inner.Step(ctx)
	if n := ctx.K.SyscallCount - before; n > 0 {
		ctx.K.Charge(simtime.Duration(int64(n)*s.overheadNS), "preload-intercept")
	}
	return st, err
}
