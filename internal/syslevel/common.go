// Package syslevel implements the twelve system-level checkpoint/restart
// mechanisms the paper surveys (Table 1) — VMADump, BProc, EPCKPT, CRAK,
// ZAP, UCLiK, CHPOX, BLCR, LAM/MPI, PsncR/C, Software Suspend, and
// Checkpoint — plus TICK, the transparent incremental kernel-level
// checkpointer the paper argues for as the direction forward. Each
// mechanism is built strictly from the simulated-kernel facilities its
// real counterpart uses: system calls in the static kernel, new kernel
// signals, or kernel threads in loadable modules reached through /dev
// ioctl or /proc (§4.1).
package syslevel

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/mechanism"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// captureOpts select the mechanism-specific capture behaviour.
type captureOpts struct {
	// delta, when non-nil, is a delta request's tracker, epoch and
	// rebase (from the cluster agents); otherwise the process's chain in
	// the core decides.
	delta *mechanism.Delta
	// kernelExtras captures sockets/shm (ZAP pods).
	kernelExtras bool
	// includeFileContents snapshots every open regular file into the
	// image (PsncR/C: "all of the code, shared libraries, and open files
	// are always included").
	includeFileContents bool
	// forkConsistency captures a forked frozen copy while the original
	// keeps running (Checkpoint [5]); otherwise the target is stopped.
	forkConsistency bool
	// noInterrupts runs the capture with device interrupts deferred
	// (the delay mechanism §4.1 calls for).
	noInterrupts bool
	// parallelism shards the payload read and image encode across a
	// worker pool (0 or 1 = sequential; see checkpoint.Request).
	parallelism int
}

// captureKernel performs one kernel-level capture of target through c's
// capture step with the given consistency strategy, charging all costs,
// and fills the ticket. self is the executing context's process (kernel
// thread or the target itself for syscall/signal agents).
func captureKernel(c *mechanism.Core, k *kernel.Kernel, self, target *proc.Process, tgt storage.Target, env *storage.Env, opts captureOpts, ticket *mechanism.Ticket) {
	ticket.StartedAt = k.Now()
	if tgt != nil && !tgt.Available() {
		ticket.Finish(k.Now(), nil, checkpoint.Stats{}, fmt.Errorf("syslevel: %s: storage: %w", c.Name(), storage.ErrTargetUnavailable))
		return
	}

	if opts.noInterrupts {
		k.DisableInterrupts()
		defer k.EnableInterrupts()
	}

	// Consistency (§4.1): either freeze the target for the duration of
	// the capture, or fork a frozen copy and capture that while the
	// original runs on. When the target is executing the checkpoint code
	// itself (syscall or kernel-signal agents), its data cannot change
	// concurrently and no freeze is needed.
	captured := target
	wasRunnable := target.Runnable() || target.State == proc.StateRunning
	switch {
	case opts.forkConsistency:
		child, err := k.Fork(target, false)
		if err != nil {
			ticket.Finish(k.Now(), nil, checkpoint.Stats{}, err)
			return
		}
		captured = child
		defer k.Procs.Remove(child.PID)
	case self == target:
		// In-context capture: nothing to do.
	default:
		prevState := target.State
		k.Stop(target)
		defer func() {
			switch {
			case prevState == proc.StateBlocked && target.WaitReason != "":
				// Still waiting for its event: return to the wait.
				target.State = proc.StateBlocked
			case prevState == proc.StateBlocked || wasRunnable:
				// The event fired while frozen (WaitReason cleared), or
				// the process was runnable: make it runnable again.
				k.Wake(target)
			}
		}()
	}

	// A kernel thread uses the page tables of the task it interrupted;
	// reaching a different process's memory costs an address-space
	// switch (EnsureAS charges the TLB flush only when needed).
	k.EnsureAS(captured)

	req := checkpoint.Request{Acc: &checkpoint.KernelAccessor{K: k, P: captured}, Target: tgt, Env: env, Parallelism: opts.parallelism}
	if opts.forkConsistency {
		// The frozen fork is captured, but the image belongs to the parent.
		req.AsPID = target.PID
	}
	// Kernel extras and file contents join the image before layout, so
	// the stored encoding carries them.
	if opts.kernelExtras || opts.includeFileContents {
		req.KernelExtras = func(img *checkpoint.Image) {
			if opts.kernelExtras {
				checkpoint.CaptureKernelExtras(k, target, img)
			}
			if opts.includeFileContents {
				addFileContents(img, captured)
			}
		}
	}
	img, st, err := c.Capture(k, req, opts.delta)
	// Interrupts that became due while the capture charged time intrude
	// on it now (extending the measured capture), unless the mechanism
	// deferred them — the §4.1 "mechanism to delay these events".
	k.Eng.RunUntil(k.Now())

	// Time-sharing stretch (§4.1): an agent in the SCHED_OTHER class —
	// whether a low-priority kernel thread or the application itself
	// running checkpoint code in a syscall or signal handler — shares the
	// CPU with every other runnable time-sharing process, so the capture
	// stretches by the competing load. A SCHED_FIFO kernel thread runs to
	// completion and skips this entirely.
	if self != nil && self.Policy == proc.SchedOther {
		others := 0
		for _, q := range k.Sched.Runnable() {
			if q != self && q != target && q.Policy == proc.SchedOther && q.Runnable() {
				others++
			}
		}
		if others > 0 {
			stretch := simtime.Duration(others) * k.Now().Sub(ticket.StartedAt)
			k.Sched.Dequeue(self)
			k.RunWhile(stretch, self)
			if self.Runnable() {
				k.Sched.Enqueue(self)
			}
		}
	}
	ticket.Finish(k.Now(), img, st, err)
}

// addFileContents snapshots every open regular file into its FDRecord —
// PsncR/C's no-optimization behaviour.
func addFileContents(img *checkpoint.Image, p *proc.Process) {
	for i, rec := range img.FDs {
		if rec.Contents != nil {
			continue
		}
		if of, err := p.FD(rec.FD); err == nil {
			if ino := of.Node.Inode(); ino != nil {
				img.FDs[i].Contents = ino.Snapshot()
			}
		}
	}
}

// ckptRequest is one unit of work for a checkpoint kernel thread.
type ckptRequest struct {
	target *proc.Process
	tgt    storage.Target
	env    *storage.Env
	opts   captureOpts
	ticket *mechanism.Ticket
}

// daemon is the checkpoint kernel thread of the kernel-thread family: it
// sleeps until a request is enqueued, then captures with kernel
// privileges. Kernel threads may hold Go state (they are never
// checkpointed), so this Program is deliberately stateful.
type daemon struct {
	core  *mechanism.Core
	k     *kernel.Kernel
	self  *proc.Process
	queue []*ckptRequest
	// preCapture runs in thread context before the capture (BLCR uses it
	// to run the application's registered callback handler).
	preCapture func(k *kernel.Kernel, req *ckptRequest)
}

// Name implements kernel.Program.
func (d *daemon) Name() string { return d.core.Name() + "-kthread" }

// Init implements kernel.Program: daemons start blocked, waiting for work.
func (d *daemon) Init(ctx *kernel.Context) error {
	ctx.P.State = proc.StateBlocked
	ctx.P.WaitReason = "idle checkpoint thread"
	return nil
}

// Step implements kernel.Program.
func (d *daemon) Step(ctx *kernel.Context) (kernel.Status, error) {
	if len(d.queue) == 0 {
		ctx.P.State = proc.StateBlocked
		ctx.P.WaitReason = "idle checkpoint thread"
		return kernel.StatusBlocked, nil
	}
	req := d.queue[0]
	d.queue = d.queue[1:]
	if d.preCapture != nil {
		d.preCapture(d.k, req)
	}
	captureKernel(d.core, d.k, d.self, req.target, req.tgt, req.env, req.opts, req.ticket)
	return kernel.StatusRunning, nil
}

// enqueue stamps the request's ticket, adds the work and wakes the
// thread.
func (d *daemon) enqueue(req *ckptRequest) error {
	req.ticket.RequestedAt = d.k.Now()
	d.queue = append(d.queue, req)
	d.k.Wake(d.self)
	return nil
}

// spawnDaemon creates and registers the kernel thread capturing through
// core.
func spawnDaemon(k *kernel.Kernel, core *mechanism.Core, rtprio int, policy proc.Policy, preCapture func(*kernel.Kernel, *ckptRequest)) (*daemon, error) {
	d := &daemon{core: core, k: k, preCapture: preCapture}
	p, err := k.SpawnKernelThread(d, rtprio)
	if err != nil {
		return nil, err
	}
	p.Policy = policy
	d.self = p
	return d, nil
}
