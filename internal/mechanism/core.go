package mechanism

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

// Rules is the data a system hands its Core: everything about it that is
// a value rather than a kernel facility.
type Rules struct {
	// Features is the system's Table 1 row; its Name is the system's.
	Features taxonomy.Features
	// Key names the Registered flag a process must carry before a
	// Request ("" when none is needed), and Refusal is the error a
	// Request gets without it, wrapping ErrNotRegistered (a skipped
	// registration step) or ErrUnsupported (an application that was not
	// modified to call in).
	Key     string
	Refusal error
	// Restore is the template Restart fills the enqueue flag into.
	Restore checkpoint.RestoreOptions
	// Width, when set, is read by every Restart as the replay width
	// (the kernel-thread family's RestoreParallelizer setting).
	Width *int
}

// Core is the part of a checkpoint/restart system that does not depend
// on its agent: its name and Table 1 row, the bind to one kernel, the
// identity Prepare and empty Setup of a system that needs neither, the
// admission rules of a Request (installed, registered, storage kind),
// the table of requests waiting for their process to reach the capture
// point, and Restart from a template. Every system embeds one; each
// keeps only the methods whose behaviour differs (its install hook, a
// registering Setup, its initiation path).
type Core struct {
	rules   Rules
	k       *kernel.Kernel
	seqs    *Seqs
	pending map[proc.PID]*Pending
}

// Pending is a Request waiting for its process to reach the capture
// point: a compiled-in call, a signal handler, or a kernel signal's
// delivery.
type Pending struct {
	Tgt    storage.Target
	Env    *storage.Env
	Ticket *Ticket
}

// NewCore returns an unbound core over r.
func NewCore(r Rules) Core { return Core{rules: r} }

// Name implements Mechanism.
func (c *Core) Name() string { return c.rules.Features.Name }

// Features implements Mechanism.
func (c *Core) Features() taxonomy.Features { return c.rules.Features }

// Install implements Mechanism for a system with nothing to put into the
// kernel beyond the bind.
func (c *Core) Install(k *kernel.Kernel) error { return c.Bind(k, nil) }

// Prepare implements Mechanism: the executable is unchanged.
func (c *Core) Prepare(prog kernel.Program) kernel.Program { return prog }

// Setup implements Mechanism: no registration step.
func (c *Core) Setup(k *kernel.Kernel, p *proc.Process) error { return nil }

// Request implements Mechanism for a system whose process reaches its
// capture point by itself: the request is admitted and waits in the
// pending table (Take) until then.
func (c *Core) Request(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*Ticket, error) {
	if err := c.Admit(k, p, tgt); err != nil {
		return nil, err
	}
	t := &Ticket{RequestedAt: k.Now()}
	c.pending[p.PID] = &Pending{Tgt: tgt, Env: env, Ticket: t}
	return t, nil
}

// Restart implements Mechanism: a restore from the system's template.
func (c *Core) Restart(k *kernel.Kernel, chain []*checkpoint.Image, enqueue bool) (*proc.Process, error) {
	opt := c.rules.Restore
	opt.Enqueue = enqueue
	if c.rules.Width != nil {
		opt.Parallelism = *c.rules.Width
	}
	return checkpoint.Restore(k, chain, opt)
}

// Bind ties the core to k once, running hook (the system's kernel
// change: a signal, a device, a /proc entry) on the first bind. Binding
// again to k is a no-op; a core bound to another kernel refuses.
func (c *Core) Bind(k *kernel.Kernel, hook func() error) error {
	if c.k == k {
		return nil
	}
	if c.k != nil {
		return fmt.Errorf("mechanism: %s already installed on another kernel", c.Name())
	}
	if hook != nil {
		if err := hook(); err != nil {
			return err
		}
	}
	c.k, c.seqs, c.pending = k, NewSeqs(), make(map[proc.PID]*Pending)
	return nil
}

// Unbind releases the bind to k (a module unload).
func (c *Core) Unbind(k *kernel.Kernel) error {
	if err := c.Bound(k); err != nil {
		return err
	}
	c.k = nil
	return nil
}

// Bound returns ErrNotInstalled unless the core is bound to k.
func (c *Core) Bound(k *kernel.Kernel) error {
	if c.k != k || k == nil {
		return ErrNotInstalled
	}
	return nil
}

// Seqs returns the sequence numbers of the current bind.
func (c *Core) Seqs() *Seqs { return c.seqs }

// Enroll marks p registered with the system.
func (c *Core) Enroll(p *proc.Process) { p.Registered[c.rules.Key] = true }

// Admit applies a Request's rules, in order: the core is bound to k, p
// carries the registration flag, and a system-level system's target is
// of a kind in its Table 1 storage column. A memory target is always
// accepted, and a replicated set wherever the column has remote (it fans
// out over the interconnect); a system with no stable storage accepts
// no target. User-level schemes write through the process's own file
// descriptors, and their column is not enforced.
func (c *Core) Admit(k *kernel.Kernel, p *proc.Process, tgt storage.Target) error {
	if err := c.Bound(k); err != nil {
		return err
	}
	if c.rules.Key != "" && !p.Registered[c.rules.Key] {
		return c.rules.Refusal
	}
	f := c.rules.Features
	if tgt == nil || f.Context == taxonomy.UserLevel {
		return nil
	}
	for _, s := range f.Storage {
		if tgt.Kind() == s || tgt.Kind() == storage.KindMemory || tgt.Kind() == storage.KindReplicated && s == storage.KindRemote {
			return nil
		}
	}
	return fmt.Errorf("%w: %s supports storage %v, not %v", ErrUnsupported, f.Name, f.Storage, tgt.Kind())
}

// Take removes and returns p's pending request, or nil.
func (c *Core) Take(pid proc.PID) *Pending {
	r := c.pending[pid]
	delete(c.pending, pid)
	return r
}

// Hook returns prog modified to call at every `every` iterations (1 when
// 0) — the compiled-in checkpoint call of the library and syscall
// systems. Reaching the call registers the process.
func (c *Core) Hook(prog kernel.Program, every uint64, at func(ctx *kernel.Context) error) kernel.Program {
	return workload.Hooked{
		Inner: prog,
		Label: c.Name(),
		Every: max(every, 1),
		Hook: func(ctx *kernel.Context) error {
			c.Enroll(ctx.P)
			return at(ctx)
		},
	}
}

// Finish completes the ticket at time at.
func (t *Ticket) Finish(at simtime.Time, img *checkpoint.Image, st checkpoint.Stats, err error) {
	t.Img, t.Stats, t.Err = img, st, err
	t.CompletedAt = at
	t.Done = true
}

// Shim wraps a program in a per-system-call interception layer (ZAP's
// pod, the LD_PRELOAD library): the program is otherwise untouched, but
// each system call it makes costs OverheadNS more, charged as Label.
type Shim struct {
	Inner      kernel.Program
	OverheadNS int64
	Label      string
	// Enter, when set, runs as the program starts, before its own Init.
	Enter func(ctx *kernel.Context)
}

// Name implements kernel.Program. The shim does not change the program's
// identity, so a restart finds it whether or not the target wraps it.
func (s *Shim) Name() string { return s.Inner.Name() }

// Init implements kernel.Program.
func (s *Shim) Init(ctx *kernel.Context) error {
	if s.Enter != nil {
		s.Enter(ctx)
	}
	return s.Inner.Init(ctx)
}

// Step implements kernel.Program: run the inner step and charge the
// interception overhead for each system call it made.
func (s *Shim) Step(ctx *kernel.Context) (kernel.Status, error) {
	before := ctx.K.SyscallCount
	st, err := s.Inner.Step(ctx)
	if n := ctx.K.SyscallCount - before; n > 0 {
		ctx.K.Charge(simtime.Duration(int64(n)*s.OverheadNS), s.Label)
	}
	return st, err
}
