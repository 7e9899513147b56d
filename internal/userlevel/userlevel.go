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
)

// userCore is the user-level layer over the mechanism core: the
// in-process capture every scheme runs at its checkpoint point, the
// incremental trackers, and the periodic self-checkpoint.
type userCore struct {
	mechanism.Core
	// trackers hold the user-level mprotect/SIGSEGV trackers of an
	// incremental scheme (libckpt's incremental mode [27]).
	trackers map[proc.PID]*checkpoint.WPTracker
	// every is the periodic self-checkpoint interval in iterations
	// (library mechanisms) — automatic initiation at user level.
	every      uint64
	defaultTgt storage.Target
}

// init gives m its core over r. With handler set, Restart reinstalls the
// checkpoint signal handler, as the relinked library's startup path
// does.
func (m *userCore) init(r mechanism.Rules, every uint64, defaultTgt storage.Target, handler bool) {
	if handler {
		h := m.handler(r.Features.Name)
		r.Restore.Handlers = map[string]*sig.Handler{h.Name: h}
	}
	m.Core = mechanism.NewCore(r)
	m.trackers = make(map[proc.PID]*checkpoint.WPTracker)
	m.every, m.defaultTgt = every, defaultTgt
}

// captureInProcess performs a user-level capture in the context of the
// checkpointed process itself (library call or signal handler).
func (m *userCore) captureInProcess(ctx *kernel.Context, req *mechanism.Pending) {
	k := ctx.K
	ticket := req.Ticket
	ticket.StartedAt = k.Now()
	fail := func(err error) { ticket.Finish(k.Now(), nil, checkpoint.Stats{}, err) }
	if ctx.P.Multithreaded() && !m.Features().Multithreaded {
		fail(fmt.Errorf("%w: %s checkpoints single-threaded processes only", mechanism.ErrUnsupported, m.Name()))
		return
	}
	if req.Tgt != nil && !req.Tgt.Available() {
		fail(fmt.Errorf("userlevel: %s: storage: %w", m.Name(), storage.ErrTargetUnavailable))
		return
	}

	var trk checkpoint.Tracker
	if m.Features().Incremental {
		t, ok := m.trackers[ctx.P.PID]
		if !ok {
			t = checkpoint.NewUserWPTracker(ctx)
			if err := t.Arm(); err != nil {
				fail(err)
				return
			}
			m.trackers[ctx.P.PID] = t
		}
		trk = t
	}

	env := req.Env
	if env == nil {
		env = mechanism.StorageEnvFor(ctx)
	}
	seq, parent := m.Seqs().Next(ctx.P.PID)
	img, st, err := checkpoint.Capture(checkpoint.Request{
		Acc:       &checkpoint.UserAccessor{Ctx: ctx},
		Trk:       trk,
		Target:    req.Tgt,
		Env:       env,
		Mechanism: m.Name(),
		Hostname:  k.Cfg.Hostname,
		Seq:       seq,
		Parent:    parent,
		Now:       k.Now(),
	})
	if err == nil {
		m.Seqs().Commit(img)
	}
	ticket.Finish(k.Now(), img, st, err)
}

// atPoint is the body of both compiled-in checkpoint calls and signal
// handlers: consume a pending request, or do a periodic checkpoint.
func (m *userCore) atPoint(ctx *kernel.Context) {
	req := m.Take(ctx.P.PID)
	if req == nil {
		if m.defaultTgt == nil {
			return
		}
		req = &mechanism.Pending{Tgt: m.defaultTgt, Ticket: &mechanism.Ticket{RequestedAt: ctx.K.Now()}}
	}
	m.captureInProcess(ctx, req)
}

// handler builds the checkpoint signal handler of the scheme called
// name. It uses non-reentrant C-library functions.
func (m *userCore) handler(name string) *sig.Handler {
	return &sig.Handler{
		Name:             name + "-handler",
		UsesNonReentrant: true,
		Fn: func(c any, s sig.Signal) {
			if ctx, ok := c.(*kernel.Context); ok {
				m.atPoint(ctx)
			}
		},
	}
}

// signal is a Request by kill: the request is admitted and pending, and
// s makes the process's handler take it.
func (m *userCore) signal(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env, s sig.Signal) (*mechanism.Ticket, error) {
	t, err := m.Request(k, p, tgt, env)
	if err != nil {
		return nil, err
	}
	if err := k.Kill(p.PID, s); err != nil {
		m.Take(p.PID)
		return nil, err
	}
	return t, nil
}

// notRegistered is the refusal of a signal scheme whose Setup was
// skipped.
func notRegistered(name, why string) error {
	return fmt.Errorf("%w: %s: %s", mechanism.ErrNotRegistered, name, why)
}

// LibCkpt models libckpt-class library checkpointing [27]: the
// application is modified and relinked against the checkpoint library,
// which checkpoints at the compiled-in calls. Incremental mode uses
// mprotect + SIGSEGV page tracking, the technique §3 describes. A
// Request is honoured at the next compiled-in checkpoint call (the
// flexibility limitation of §3).
type LibCkpt struct {
	userCore
}

// NewLibCkpt returns a libckpt instance checkpointing every `every`
// iterations to defaultTgt (automatic initiation); incremental selects
// page-granularity incremental checkpointing.
func NewLibCkpt(every uint64, defaultTgt storage.Target, incremental bool) *LibCkpt {
	m := &LibCkpt{}
	library(m, taxonomy.Features{Name: "libckpt", Incremental: incremental}, every, defaultTgt)
	return m
}

// library makes m the library scheme with f's name and flags.
func library(m *LibCkpt, f taxonomy.Features, every uint64, defaultTgt storage.Target) {
	f.Context, f.Agent = taxonomy.UserLevel, taxonomy.AgentLibrary
	f.Storage, f.Initiation = []storage.Kind{storage.KindLocal}, taxonomy.InitAutomatic
	m.init(mechanism.Rules{
		Features: f,
		Key:      f.Name,
		Refusal:  fmt.Errorf("%w: %s: application not relinked against the checkpoint library", mechanism.ErrUnsupported, f.Name),
	}, every, defaultTgt, false)
}

// Prepare implements mechanism.Mechanism: relink against the library —
// checkpoint calls appear at iteration boundaries.
func (m *LibCkpt) Prepare(prog kernel.Program) kernel.Program {
	return m.Hook(prog, m.every, func(ctx *kernel.Context) error {
		m.atPoint(ctx)
		return nil
	})
}

// LibTckpt models libtckpt [10]: libckpt-style library checkpointing that
// also handles LinuxThreads programs.
type LibTckpt struct {
	LibCkpt
}

// NewLibTckpt returns a libtckpt instance.
func NewLibTckpt(every uint64, defaultTgt storage.Target) *LibTckpt {
	m := &LibTckpt{}
	library(&m.LibCkpt, taxonomy.Features{Name: "libtckpt", Multithreaded: true}, every, defaultTgt)
	return m
}

// CondorStyle models Condor's signal-driven checkpointing [21]: a handler
// for a general-purpose signal (SIGUSR2 here; Condor also used SIGUSR1
// and SIGUNUSED) performs the checkpoint; user initiation via kill. The
// handler uses non-reentrant C-library functions — the §3 deadlock hazard
// is real and reproducible against malloc-heavy applications. Relinking
// is required, but the program body is unchanged: the library's startup
// code installs the handler (Setup), and reinstalls it on restart.
type CondorStyle struct {
	userCore
	// Signal is the checkpoint signal (default SIGUSR2).
	Signal sig.Signal
}

// NewCondorStyle returns a Condor-style instance.
func NewCondorStyle() *CondorStyle {
	m := &CondorStyle{Signal: sig.SIGUSR2}
	m.init(mechanism.Rules{
		Features: taxonomy.Features{
			Name: "condor", Context: taxonomy.UserLevel, Agent: taxonomy.AgentUserSignal,
			Storage:    []storage.Kind{storage.KindLocal, storage.KindRemote},
			Initiation: taxonomy.InitUser,
		},
		Key:     "condor",
		Refusal: notRegistered("condor", "handler not installed (run Setup)"),
	}, 0, nil, true)
	return m
}

// Setup implements mechanism.Mechanism: install the checkpoint handler
// (the relinked library does this from its constructor).
func (m *CondorStyle) Setup(k *kernel.Kernel, p *proc.Process) error {
	if err := m.Bound(k); err != nil {
		return err
	}
	k.Charge(k.CM.Syscall(), "sigaction")
	if err := p.Sig.SetHandler(m.Signal, m.handler(m.Name())); err != nil {
		return err
	}
	m.Enroll(p)
	return nil
}

// Request implements mechanism.Mechanism: kill -USR2 <pid>.
func (m *CondorStyle) Request(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*mechanism.Ticket, error) {
	return m.signal(k, p, tgt, env, m.Signal)
}

// EskyStyle models Esky [15]: a SIGALRM timer periodically interrupts the
// application and the handler checkpoints it — automatic initiation from
// user level. A user can force an early checkpoint by sending SIGALRM.
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
	m := &EskyStyle{Period: interval}
	m.init(mechanism.Rules{
		Features: taxonomy.Features{
			Name: "esky", Context: taxonomy.UserLevel, Agent: taxonomy.AgentUserSignal,
			Storage:    []storage.Kind{storage.KindLocal},
			Initiation: taxonomy.InitAutomatic,
		},
		Key:     "esky",
		Refusal: notRegistered("esky", "not set up"),
	}, 0, defaultTgt, false)
	return m
}

// Setup implements mechanism.Mechanism: install the SIGALRM handler and
// arm the periodic timer.
func (m *EskyStyle) Setup(k *kernel.Kernel, p *proc.Process) error {
	if err := m.Bound(k); err != nil {
		return err
	}
	h := &sig.Handler{
		Name:             m.Name() + "-alarm",
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
	m.Enroll(p)
	return nil
}

// Request implements mechanism.Mechanism: kill -ALRM <pid>.
func (m *EskyStyle) Request(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*mechanism.Ticket, error) {
	return m.signal(k, p, tgt, env, sig.SIGALRM)
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
	m := &PreloadShim{CondorStyle: CondorStyle{Signal: sig.SIGUSR2}, OverheadNS: 400}
	m.init(mechanism.Rules{
		Features: taxonomy.Features{
			Name: "preload", Context: taxonomy.UserLevel, Agent: taxonomy.AgentPreload,
			Transparent: true, // no recompile/relink; launched with LD_PRELOAD
			Storage:     []storage.Kind{storage.KindLocal},
			Initiation:  taxonomy.InitUser,
		},
		Key:     "preload",
		Refusal: notRegistered("preload", "handler not installed (run Setup)"),
	}, 0, nil, true)
	return m
}

// Prepare implements mechanism.Mechanism: the preloaded library wraps
// libc entry points, charging interposition cost per syscall.
func (m *PreloadShim) Prepare(prog kernel.Program) kernel.Program {
	return &mechanism.Shim{Inner: prog, OverheadNS: m.OverheadNS, Label: "preload-intercept"}
}
