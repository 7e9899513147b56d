package syslevel

import (
	"fmt"

	"repro/internal/mechanism"
	"repro/internal/simos/kernel"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// syscallCore is the syscall-agent family's layer over the mechanism
// core (VMADump, BProc, Checkpoint [5]): the application itself invokes
// a checkpoint system call at points compiled into it, so initiation is
// "automatic" and transparency is lost — the program must be modified
// (here: wrapped) before it can be checkpointed at all. A Request waits
// for the next checkpoint point; one for an application that was not
// modified has no way in (§4.1 "the application source code is not
// available and so is not possible to change it").
type syscallCore struct {
	mechanism.Core
	// every is the self-checkpoint period in app iterations; 0 means
	// only explicit Requests trigger captures.
	every uint64
	// defaultTgt receives periodic self-checkpoints.
	defaultTgt storage.Target
}

func newSyscallCore(f taxonomy.Features, every uint64, defaultTgt storage.Target) syscallCore {
	return syscallCore{Core: mechanism.NewCore(mechanism.Rules{
		Features: f,
		Key:      f.Name,
		Refusal:  fmt.Errorf("%w: %s requires the application to invoke the checkpoint system call", mechanism.ErrUnsupported, f.Name),
	}), every: every, defaultTgt: defaultTgt}
}

// Prepare implements mechanism.Mechanism: the application is modified to
// trap into the checkpoint syscall every `every` iterations and whenever
// a request is pending.
func (m *syscallCore) Prepare(prog kernel.Program) kernel.Program {
	return m.Hook(prog, m.every, m.selfCheckpoint)
}

// selfCheckpoint runs in process context when the app reaches a
// checkpoint point: one syscall into the kernel, then a kernel-level
// capture of `current`.
func (m *syscallCore) selfCheckpoint(ctx *kernel.Context) error {
	k := ctx.K
	req := m.Take(ctx.P.PID)
	if req == nil {
		if m.every == 0 || m.defaultTgt == nil {
			return nil
		}
		req = &mechanism.Pending{Tgt: m.defaultTgt, Env: mechanism.StorageEnvFor(ctx), Ticket: &mechanism.Ticket{RequestedAt: k.Now()}}
	}
	k.Charge(k.CM.Syscall(), "syscall:"+m.Name())
	fork := m.Features().ForkConsistency
	env := req.Env
	if fork {
		// Checkpoint [5]: after the fork the parent returns to user code
		// while the frozen copy is saved; I/O waits therefore let every
		// process — including the parent — keep running.
		env = &storage.Env{Bill: k, Wait: func(d simtime.Duration, what string) { k.RunWhile(d, nil) }}
	}
	captureKernel(k, ctx.P, ctx.P, req.Tgt, env, captureOpts{mech: m.Name(), seqs: m.Seqs(), forkConsistency: fork}, req.Ticket)
	return req.Ticket.Err
}

// VMADump models the Virtual Memory Area Dumper [17]: checkpoint/restart
// system calls in the static kernel, invoked by the application on itself
// (the `current` macro), writing the process state to a file descriptor.
type VMADump struct {
	syscallCore
}

// NewVMADump returns a VMADump instance (Table 1 row 1). every/defaultTgt
// configure the application's compiled-in periodic self-checkpointing
// (0 = only explicit requests, honoured at the next checkpoint point).
func NewVMADump(every uint64, defaultTgt storage.Target) *VMADump {
	return &VMADump{newSyscallCore(taxonomy.Features{
		Name: "VMADump", Context: taxonomy.SystemLevel, Agent: taxonomy.AgentSyscall,
		Storage:    []storage.Kind{storage.KindLocal, storage.KindRemote},
		Initiation: taxonomy.InitAutomatic,
	}, every, defaultTgt)}
}

// BProc models the Beowulf Distributed Process Space [18]: VMADump used
// for process migration inside a cluster, with no stable storage at all
// (Table 1: storage "none") — requests capture in-memory images that
// move directly to the target node.
type BProc struct {
	syscallCore
}

// NewBProc returns a BProc instance (Table 1 row 2).
func NewBProc() *BProc {
	return &BProc{newSyscallCore(taxonomy.Features{
		Name: "BPROC", Context: taxonomy.SystemLevel, Agent: taxonomy.AgentSyscall,
		Initiation: taxonomy.InitAutomatic,
	}, 1, nil)}
}

// CheckpointFork models "Checkpoint" (Carothers & Szymanski [5]):
// checkpoint system calls in the static kernel whose innovation is
// consistency via fork — the application keeps running while a concurrent
// thread saves the frozen copy.
type CheckpointFork struct {
	syscallCore
}

// NewCheckpointFork returns a Checkpoint [5] instance (Table 1 row 12)
// with compiled-in period every (iterations) writing to defaultTgt.
func NewCheckpointFork(every uint64, defaultTgt storage.Target) *CheckpointFork {
	return &CheckpointFork{newSyscallCore(taxonomy.Features{
		Name: "Checkpoint", Context: taxonomy.SystemLevel, Agent: taxonomy.AgentSyscall,
		Storage:       []storage.Kind{storage.KindLocal},
		Initiation:    taxonomy.InitAutomatic,
		Multithreaded: true, ForkConsistency: true,
	}, every, defaultTgt)}
}
