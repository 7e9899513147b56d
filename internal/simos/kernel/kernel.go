// Package kernel ties the simulated OS together: the run loop, syscall
// layer, signal delivery at the kernel→user boundary, kernel threads,
// loadable modules, interrupts, and the accounting (Biller) that charges
// every operation to simulated time.
//
// Execution model. Programs (package workload and mechanism helpers) are
// stateless Go values registered by name; all mutable program state lives
// in the process's simulated registers and memory, so a restored
// register+memory image resumes execution exactly. The kernel runs one
// simulated CPU: it picks a process, runs Program.Step calls until the
// time slice expires or the process blocks, delivers signals on each
// return to user mode, and processes timer/device events in between.
//
// Nested execution. An operation that spans simulated time while other
// processes should keep running (a disk write, a kernel thread saving a
// forked image) calls Context.IO or Kernel.RunWhile, which recursively
// runs the scheduler loop for that span. This gives blocking semantics to
// straight-line Go code while keeping the simulation deterministic and
// single-threaded.
package kernel

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/costmodel"
	"repro/internal/simos/fs"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
	"repro/internal/simos/sched"
	"repro/internal/simos/sig"
	"repro/internal/simtime"
)

// Status is the result of one Program.Step call.
type Status uint8

// Step results.
const (
	// StatusRunning means the program has more work; the kernel may call
	// Step again in this slice.
	StatusRunning Status = iota
	// StatusYield gives up the rest of the slice voluntarily.
	StatusYield
	// StatusBlocked means the program arranged its own wakeup (timer,
	// message arrival) and must not be stepped until state is Ready.
	StatusBlocked
	// StatusExited means the program is done; the exit code was set via
	// Context.Exit or defaults to 0.
	StatusExited
)

// Program is simulated executable code. Implementations must be stateless:
// a single Program value serves every process executing it, with all
// per-process state in registers and simulated memory (that is what makes
// checkpoint/restart exact).
type Program interface {
	// Name is the registry key, the analogue of the executable path.
	Name() string
	// Init builds the initial address space and registers at exec time.
	// It is NOT called on restart — restart restores memory and registers
	// from the image instead.
	Init(ctx *Context) error
	// Step runs a bounded unit of work (well under one scheduler tick).
	Step(ctx *Context) (Status, error)
}

// Registry maps program names to Program values, playing the role of the
// filesystem holding executables: restart looks the program up by name on
// the target machine.
type Registry struct {
	programs map[string]Program
}

// NewRegistry returns an empty program registry.
func NewRegistry() *Registry { return &Registry{programs: make(map[string]Program)} }

// Register adds a program; duplicate names are an error.
func (r *Registry) Register(p Program) error {
	if _, ok := r.programs[p.Name()]; ok {
		return fmt.Errorf("kernel: program %q already registered", p.Name())
	}
	r.programs[p.Name()] = p
	return nil
}

// MustRegister is Register that panics on error (init-time wiring).
func (r *Registry) MustRegister(p Program) {
	if err := r.Register(p); err != nil {
		panic(err)
	}
}

// Lookup finds a program by name.
func (r *Registry) Lookup(name string) (Program, error) {
	p, ok := r.programs[name]
	if !ok {
		return nil, fmt.Errorf("kernel: no program %q", name)
	}
	return p, nil
}

// Module is a loadable kernel module (CRAK, BLCR, CHPOX...). Load
// registers devices, /proc entries, signals or kernel threads; Unload
// must undo them. The paper: "often it is possible to write most of the
// code as kernel module. This will provide portability and modularity."
type Module interface {
	ModuleName() string
	Load(k *Kernel) error
	Unload(k *Kernel) error
}

// tickLen is the scheduler tick: the longest slice a process runs
// before the scheduler picks again.
const tickLen = simtime.Millisecond

// Config tunes a kernel instance.
type Config struct {
	Hostname string
	// InterruptRate is the mean device-interrupt rate in interrupts per
	// simulated second (Poisson); zero disables background interrupts.
	InterruptRate float64
	// InterruptHandler is the simulated time each device interrupt burns.
	InterruptHandler simtime.Duration
	// Seed drives all kernel-local randomness.
	Seed int64
}

// DefaultConfig returns the standard configuration.
func DefaultConfig(hostname string) Config {
	return Config{
		Hostname:         hostname,
		InterruptRate:    0,
		InterruptHandler: 20 * simtime.Microsecond,
		Seed:             1,
	}
}

// Kernel is one simulated machine image.
type Kernel struct {
	Cfg      Config
	Eng      *simtime.Engine
	CM       *costmodel.Model
	FS       *fs.FS
	Procs    *proc.Table
	Sched    *sched.Scheduler
	SigTable *sig.Table
	Registry *Registry

	rng *rand.Rand

	current *proc.Process
	// lastAS tracks whose page tables are loaded, for TLB accounting.
	lastAS *mem.AddressSpace

	modules map[string]Module

	// Kernel-persistent resources (§3: state user-level schemes cannot
	// reach): sockets and shared-memory segments.
	sockets   map[int]*Socket
	nextSock  int
	shm       map[string]*mem.VMA
	shmData   map[string][]byte
	halted    bool
	intsOff   bool
	deferred  int
	nestDepth int

	// Ledger accumulates global cost attribution for experiments.
	Ledger *costmodel.Ledger

	// Stats
	SyscallCount   uint64
	SwitchCount    uint64
	TLBFlushCount  uint64
	SignalCount    uint64
	InterruptCount uint64
	DeadlockCount  uint64
}

// New builds a kernel on a fresh engine.
func New(cfg Config, cm *costmodel.Model, reg *Registry) *Kernel {
	return NewOnEngine(cfg, cm, reg, &simtime.Engine{})
}

// NewOnEngine builds a kernel sharing an existing engine (cluster use).
func NewOnEngine(cfg Config, cm *costmodel.Model, reg *Registry, eng *simtime.Engine) *Kernel {
	k := &Kernel{
		Cfg:      cfg,
		Eng:      eng,
		CM:       cm,
		FS:       fs.New(),
		Procs:    proc.NewTable(),
		Sched:    sched.New(),
		SigTable: sig.NewTable(),
		Registry: reg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		modules:  make(map[string]Module),
		sockets:  make(map[int]*Socket),
		shm:      make(map[string]*mem.VMA),
		shmData:  make(map[string][]byte),
		Ledger:   costmodel.NewLedger(),
	}
	if cfg.InterruptRate > 0 {
		k.scheduleNextInterrupt()
	}
	return k
}

// Now returns the current simulated time.
func (k *Kernel) Now() simtime.Time { return k.Eng.Now() }

// Rand returns the kernel's deterministic RNG.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Charge implements costmodel.Biller: advances simulated time and
// attributes the cost. CPU time is billed to the current process.
func (k *Kernel) Charge(d simtime.Duration, what string) {
	if d <= 0 {
		return
	}
	k.Eng.Clock.Advance(d)
	k.Ledger.Charge(d, what)
	if k.current != nil {
		k.current.CPUTime += d
	}
}

// Current returns the running process (the `current` macro of §4.1), or
// nil when the kernel is idle.
func (k *Kernel) Current() *proc.Process { return k.current }

// Halted reports whether the machine is powered down (Software Suspend)
// or failed.
func (k *Kernel) Halted() bool { return k.halted }

// SetHalted powers the machine down or up.
func (k *Kernel) SetHalted(h bool) { k.halted = h }

// LoadModule loads a kernel module.
func (k *Kernel) LoadModule(m Module) error {
	if _, ok := k.modules[m.ModuleName()]; ok {
		return fmt.Errorf("kernel: module %q already loaded", m.ModuleName())
	}
	if err := m.Load(k); err != nil {
		return err
	}
	k.modules[m.ModuleName()] = m
	return nil
}

// UnloadModule unloads a module by name.
func (k *Kernel) UnloadModule(name string) error {
	m, ok := k.modules[name]
	if !ok {
		return fmt.Errorf("kernel: module %q not loaded", name)
	}
	if err := m.Unload(k); err != nil {
		return err
	}
	delete(k.modules, name)
	return nil
}

// ModuleLoaded reports whether the named module is loaded.
func (k *Kernel) ModuleLoaded(name string) bool {
	_, ok := k.modules[name]
	return ok
}

// Standard layout constants for Spawn.
const (
	textBase  = mem.Addr(0x0040_0000)
	heapBase  = mem.Addr(0x0060_0000)
	stackTop  = mem.Addr(0x7fff_0000)
	stackSize = 16 * mem.PageSize
	mmapBase  = mem.Addr(0x2000_0000)
)

// Spawn creates a process running the named program and enqueues it.
func (k *Kernel) Spawn(progName string, args ...string) (*proc.Process, error) {
	prog, err := k.Registry.Lookup(progName)
	if err != nil {
		return nil, err
	}
	p := k.Procs.Allocate(0, progName)
	p.Args = args
	if err := k.buildLayout(p); err != nil {
		return nil, err
	}
	ctx := &Context{K: k, P: p, T: p.MainThread()}
	if err := prog.Init(ctx); err != nil {
		k.Procs.Remove(p.PID)
		return nil, fmt.Errorf("kernel: init %s: %w", progName, err)
	}
	p.State = proc.StateReady
	k.Sched.Enqueue(p)
	return p, nil
}

// SpawnKernelThread creates a kernel thread running prog with SCHED_FIFO
// priority rtprio. Kernel threads get no user address space.
func (k *Kernel) SpawnKernelThread(prog Program, rtprio int) (*proc.Process, error) {
	p := k.Procs.Allocate(0, prog.Name())
	p.KernelThread = true
	p.KProg = prog
	p.Policy = proc.SchedFIFO
	p.StaticPrio = rtprio
	ctx := &Context{K: k, P: p, T: p.MainThread()}
	if err := prog.Init(ctx); err != nil {
		k.Procs.Remove(p.PID)
		return nil, err
	}
	// Kernel threads usually start blocked, waiting for work.
	if p.State == proc.StateReady {
		k.Sched.Enqueue(p)
	}
	return p, nil
}

func (k *Kernel) buildLayout(p *proc.Process) error {
	if _, err := p.AS.Map(textBase, 4*mem.PageSize, mem.ProtRX, mem.KindText, p.Exe); err != nil {
		return err
	}
	if _, err := p.AS.Map(heapBase, mem.PageSize, mem.ProtRW, mem.KindHeap, "[heap]"); err != nil {
		return err
	}
	if _, err := p.AS.Map(stackTop-mem.Addr(stackSize), uint64(stackSize), mem.ProtRW, mem.KindStack, "[stack]"); err != nil {
		return err
	}
	p.Regs().SP = uint64(stackTop) - 64
	// Stamp the text region with the program name so text pages have
	// deterministic, program-specific content.
	name := []byte(p.Exe)
	if len(name) > mem.PageSize {
		name = name[:mem.PageSize]
	}
	return p.AS.WriteDirect(textBase, name)
}

// Exit terminates p with the given code.
func (k *Kernel) Exit(p *proc.Process, code int) {
	p.ExitCode = code
	p.State = proc.StateZombie
	k.Sched.Dequeue(p)
	for fd := range p.OpenFDs() {
		_ = p.CloseFD(fd)
	}
	if k.current == p {
		k.current = nil
	}
}

// Kill sends a signal to pid (the kill(2) path, also reachable from the
// simulated `kill` command line). Raising a signal makes a blocked-on-
// nothing process eligible again only if it is Ready/Running; stopped
// processes wake for SIGCONT/SIGKILL.
func (k *Kernel) Kill(pid proc.PID, s sig.Signal) error {
	p, err := k.Procs.Lookup(pid)
	if err != nil {
		return err
	}
	return k.SendSignal(p, s)
}

// SendSignal raises s on p directly ("directly updating the data structure
// of the process ... to represent that the checkpoint signal has been
// sent", §4.1).
func (k *Kernel) SendSignal(p *proc.Process, s sig.Signal) error {
	if p.State == proc.StateZombie || p.State == proc.StateDead {
		return fmt.Errorf("kernel: pid %d is %s", p.PID, p.State)
	}
	p.Sig.Raise(s)
	k.SignalCount++
	switch s {
	case sig.SIGCONT:
		if p.State == proc.StateStopped {
			p.State = proc.StateReady
			k.Sched.Enqueue(p)
		}
	case sig.SIGKILL:
		if p.State != proc.StateRunning {
			// Deliver immediately for non-running processes.
			k.deliverSignals(p)
		}
	}
	return nil
}

// Wake moves a blocked process to the ready queue.
func (k *Kernel) Wake(p *proc.Process) {
	if p.State == proc.StateBlocked || p.State == proc.StateStopped {
		p.State = proc.StateReady
	}
	if p.Runnable() {
		k.Sched.Enqueue(p)
	}
}

// Stop freezes a process (checkpoint freeze, SIGSTOP, hibernation).
func (k *Kernel) Stop(p *proc.Process) {
	if p.State == proc.StateZombie || p.State == proc.StateDead {
		return
	}
	p.State = proc.StateStopped
	k.Sched.Dequeue(p)
}

// DisableInterrupts defers background device interrupts until enabled
// again — the mechanism the paper says is "needed in order to be sure the
// kernel thread will never be interrupted".
func (k *Kernel) DisableInterrupts() { k.intsOff = true }

// EnableInterrupts re-enables interrupts and fires any deferred ones.
func (k *Kernel) EnableInterrupts() {
	k.intsOff = false
	for k.deferred > 0 {
		k.deferred--
		k.handleInterrupt()
	}
}

func (k *Kernel) scheduleNextInterrupt() {
	if k.Cfg.InterruptRate <= 0 {
		return
	}
	mean := float64(simtime.Second) / k.Cfg.InterruptRate
	gap := simtime.Duration(k.rng.ExpFloat64() * mean)
	if gap < simtime.Microsecond {
		gap = simtime.Microsecond
	}
	k.Eng.After(gap, func() {
		if !k.halted {
			if k.intsOff {
				k.deferred++
			} else {
				k.handleInterrupt()
			}
		}
		k.scheduleNextInterrupt()
	})
}

func (k *Kernel) handleInterrupt() {
	k.InterruptCount++
	k.Charge(k.CM.InterruptEntry+k.Cfg.InterruptHandler, "interrupt")
}

// EnsureAS models loading p's page tables: if another address space is
// live, charge a TLB flush plus refill costs. Kernel threads calling this
// on a target process pay exactly the switch the paper describes (§4.1);
// if the target was the interrupted (= last run) task, it is free.
func (k *Kernel) EnsureAS(p *proc.Process) {
	if p.KernelThread || p.AS == k.lastAS {
		return
	}
	k.TLBFlushCount++
	k.Charge(k.CM.TLBFlush+64*k.CM.TLBRefillPer, "tlb-switch")
	k.lastAS = p.AS
}

// RunFor advances the whole machine by d of simulated time.
func (k *Kernel) RunFor(d simtime.Duration) {
	k.runLoop(k.Now().Add(d), nil)
}

// RunUntil runs until stop holds or the deadline passes; reports whether
// stop holds. stop is checked between process steps, so the machine
// halts at the first step boundary where it holds.
func (k *Kernel) RunUntil(deadline simtime.Time, stop func() bool) bool {
	k.runLoop(deadline, stop)
	return stop()
}

// RunUntilExit runs until p exits or the deadline passes; reports whether
// the process exited.
func (k *Kernel) RunUntilExit(p *proc.Process, deadline simtime.Time) bool {
	return k.RunUntil(deadline, func() bool { return p.State == proc.StateZombie || p.State == proc.StateDead })
}

// RunWhile lets other processes run for a span of simulated time while the
// named process (may be nil) stays blocked: this is the nested-execution
// primitive behind Context.IO. It returns when the span has elapsed.
func (k *Kernel) RunWhile(d simtime.Duration, exclude *proc.Process) {
	if k.nestDepth > 16 {
		// Give up on nesting and just advance the clock; prevents
		// pathological recursion in adversarial tests.
		k.Eng.Clock.Advance(d)
		return
	}
	k.nestDepth++
	saved := k.current
	k.current = nil
	deadline := k.Now().Add(d)
	k.runLoop(deadline, nil)
	if k.Now() < deadline {
		k.Eng.Clock.AdvanceTo(deadline)
	}
	k.current = saved
	k.nestDepth--
}

// runLoop is the scheduler core: process events, pick, run a slice.
func (k *Kernel) runLoop(deadline simtime.Time, stop func() bool) {
	for k.Now() < deadline {
		if stop != nil && stop() {
			return
		}
		if k.halted {
			return
		}
		k.Eng.RunUntil(min(k.nextEventAt(deadline), k.Now()))
		p := k.Sched.Pick()
		if p == nil {
			// Idle: advance to the next event or the deadline.
			at, ok := k.Eng.Queue.NextAt()
			if !ok || at > deadline {
				k.Eng.Clock.AdvanceTo(deadline)
				return
			}
			k.Eng.RunUntil(at)
			continue
		}
		k.runSlice(p, deadline, stop)
	}
}

func (k *Kernel) nextEventAt(deadline simtime.Time) simtime.Time {
	at, ok := k.Eng.Queue.NextAt()
	if !ok || at > deadline {
		return deadline
	}
	return at
}

// runSlice runs p until its slice expires, it blocks/stops/exits, or the
// deadline passes.
func (k *Kernel) runSlice(p *proc.Process, deadline simtime.Time, stop func() bool) {
	prev := k.current
	if prev != p {
		k.SwitchCount++
		k.Sched.NoteSwitch()
		k.Charge(k.CM.ContextSwitch, "context-switch")
		if !p.KernelThread {
			k.EnsureAS(p)
		}
	}
	k.current = p
	p.State = proc.StateRunning

	prog, ok := p.KProg.(Program)
	if !ok {
		var err error
		prog, err = k.Registry.Lookup(p.Exe)
		if err != nil {
			k.Exit(p, 127)
			k.current = nil
			return
		}
	}

	sliceEnd := k.Now().Add(tickLen)
	for k.Now() < sliceEnd && k.Now() < deadline {
		if stop != nil && stop() {
			break
		}
		// Kernel→user transition: deliver pending signals now.
		if !k.deliverSignals(p) {
			break // process no longer runnable (stopped, killed)
		}
		if p.State != proc.StateRunning {
			break
		}
		ctx := &Context{K: k, P: p, T: p.MainThread()}
		st, err := prog.Step(ctx)
		if err != nil {
			var f *mem.Fault
			if errors.As(err, &f) {
				// Unhandled memory fault: SIGSEGV default action = kill.
				k.Exit(p, 139)
			} else {
				k.Exit(p, 1)
			}
			break
		}
		// Run any events that became due while the step charged time.
		k.Eng.RunUntil(k.Now())
		switch st {
		case StatusExited:
			k.Exit(p, p.ExitCode)
		case StatusBlocked:
			if p.State == proc.StateRunning {
				p.State = proc.StateBlocked
			}
			// The step may have blocked and then been woken again within
			// the same call (barrier release); only a still-blocked
			// process leaves the runqueue.
			if p.State == proc.StateBlocked {
				k.Sched.Dequeue(p)
			}
		case StatusYield:
			p.State = proc.StateReady
		}
		if p.State != proc.StateRunning {
			break
		}
		// Preemption check: a FIFO task waking up takes the CPU now.
		if cand := k.Sched.Pick(); cand != nil && cand != p && sched.Preempts(cand, p) {
			k.Sched.NotePreemption()
			p.State = proc.StateReady
			break
		}
	}
	if p.State == proc.StateRunning {
		p.State = proc.StateReady
		if k.Sched.Tick(p) {
			k.Sched.NotePreemption()
		}
	}
	if k.current == p {
		k.current = nil
	}
	if !p.KernelThread {
		k.lastAS = p.AS
	}
}

// deliverSignals drains deliverable signals for p at the kernel→user
// boundary. Returns false if the process was stopped or killed.
func (k *Kernel) deliverSignals(p *proc.Process) bool {
	for {
		s, ok := p.Sig.NextDeliverable()
		if !ok {
			return p.State == proc.StateRunning || p.Runnable()
		}
		// Kernel-registered actions run first in kernel mode (§4.1).
		if act, ok := k.SigTable.Action(s); ok {
			disp := p.Sig.Disposition(s)
			if disp.Handler == nil && !disp.Ignored {
				ctx := &Context{K: k, P: p, T: p.MainThread()}
				act(ctx, s)
				if p.State != proc.StateRunning && !p.Runnable() {
					return false
				}
				continue
			}
		}
		disp := p.Sig.Disposition(s)
		switch {
		case disp.Ignored:
			continue
		case disp.Handler != nil:
			// The §3 reentrancy hazard: a handler that uses malloc/free
			// while the process is inside such a function deadlocks.
			if disp.Handler.UsesNonReentrant && p.InNonReentrant {
				k.DeadlockCount++
				p.WaitReason = "deadlock: non-reentrant function in signal context"
				p.State = proc.StateBlocked
				k.Sched.Dequeue(p)
				return false
			}
			k.Charge(k.CM.SignalDeliver, "signal-deliver")
			ctx := &Context{K: k, P: p, T: p.MainThread()}
			disp.Handler.Fn(ctx, s)
			k.Charge(k.CM.SignalReturn, "signal-return")
			if p.State != proc.StateRunning && !p.Runnable() {
				return false
			}
		default:
			if !k.defaultAction(p, s) {
				return false
			}
		}
	}
}

// defaultAction applies the POSIX default for s. Returns false if the
// process stopped running.
func (k *Kernel) defaultAction(p *proc.Process, s sig.Signal) bool {
	switch s {
	case sig.SIGCHLD, sig.SIGCONT:
		return true // ignore
	case sig.SIGSTOP:
		k.Stop(p)
		return false
	case sig.SIGKILL, sig.SIGTERM, sig.SIGINT, sig.SIGHUP, sig.SIGQUIT, sig.SIGSEGV, sig.SIGALRM, sig.SIGUSR1, sig.SIGUSR2, sig.SIGSYS:
		k.Exit(p, 128+int(s))
		return false
	default:
		// Unknown (dynamically numbered) signal without a kernel action:
		// terminate, like Linux does for unhandled RT signals.
		k.Exit(p, 128+int(s))
		return false
	}
}
