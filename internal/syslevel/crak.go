package syslevel

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/mechanism"
	"repro/internal/simos/fs"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// ioctl request codes for the checkpoint device nodes.
const (
	IoctlCheckpoint uint = 0xC501
	IoctlRestart    uint = 0xC502
)

// threadMech is the shared core of the kernel-thread mechanisms (CRAK,
// ZAP, UCLiK, PsncR/C, BLCR): a loadable module that spawns a checkpoint
// kernel thread and exposes a device node whose ioctl interface receives
// the pid of the process to checkpoint (§4.1 "Kernel thread").
type threadMech struct {
	name    string
	devPath string
	k       *kernel.Kernel
	d       *daemon
	seqs    *mechanism.Seqs

	// Policy and rtprio configure the thread's scheduling class; the
	// paper's argument for SCHED_FIFO is an ablation axis (E4).
	policy proc.Policy
	rtprio int

	// capturePar is the sharded-capture worker-pool width (0 or 1 =
	// sequential), set through mechanism.CaptureParallelizer.
	capturePar int

	// restorePar is the sharded-replay worker-pool width for Restart (0
	// or 1 = sequential), set through mechanism.RestoreParallelizer.
	restorePar int

	// optsFor customizes the capture per concrete mechanism.
	optsFor func() captureOpts
}

func (m *threadMech) load(k *kernel.Kernel) error {
	if m.k != nil && m.k != k {
		return fmt.Errorf("syslevel: %s already installed on another kernel", m.name)
	}
	if m.k == k {
		return nil
	}
	d, err := spawnDaemon(k, m.name+"-kthread", m.rtprio, m.policy)
	if err != nil {
		return err
	}
	_, err = k.FS.RegisterDevice(m.devPath, &fs.DeviceOps{
		Ioctl: func(ctx any, request uint, arg any) error {
			if request != IoctlCheckpoint {
				return fmt.Errorf("%s: unknown ioctl %#x", m.name, request)
			}
			req, ok := arg.(*ckptRequest)
			if !ok {
				return fmt.Errorf("%s: bad ioctl argument", m.name)
			}
			d.enqueue(req)
			return nil
		},
	})
	if err != nil {
		return err
	}
	m.k, m.d = k, d
	m.seqs = mechanism.NewSeqs()
	return nil
}

func (m *threadMech) unload(k *kernel.Kernel) error {
	if m.k != k {
		return mechanism.ErrNotInstalled
	}
	k.Exit(m.d.self, 0)
	if err := k.FS.Remove(m.devPath); err != nil {
		return err
	}
	m.k, m.d = nil, nil
	return nil
}

// SetCaptureParallelism implements mechanism.CaptureParallelizer for the
// whole kernel-thread family: the checkpoint thread forks that many
// workers for the payload read and image encode of every later capture.
func (m *threadMech) SetCaptureParallelism(workers int) { m.capturePar = workers }

// SetRestoreParallelism implements mechanism.RestoreParallelizer for the
// whole kernel-thread family: later Restarts shard chain replay across
// that many workers.
func (m *threadMech) SetRestoreParallelism(workers int) { m.restorePar = workers }

// RestartLazy implements mechanism.LazyRestarter for the whole
// kernel-thread family: restart before read, with the family's
// configured replay width applied to both the eager hot set and the
// deferred plan.
func (m *threadMech) RestartLazy(k *kernel.Kernel, leaf *checkpoint.Image, opt checkpoint.LazyOptions) (*proc.Process, *checkpoint.LazySession, error) {
	opt.Parallelism = m.restorePar
	return checkpoint.LazyRestore(k, leaf, opt)
}

// requestDelta opens the device node and issues the checkpoint ioctl,
// as the user-level control tool would, then returns the ticket that the
// kernel thread will complete. It carries the chain knobs an
// orchestration layer needs for incremental shipping: the caller's
// tracker supplies the dirty ranges, epoch namespaces the object names
// by incarnation, and rebase forgets the PID's chain so the capture
// publishes a standalone full image. A plain Request passes a nil
// tracker, epoch 0 and no rebase. The rebase/tracker contract is the caller's (see
// mechanism.DeltaRequester): a rebase round must pass a nil or fresh
// tracker, never one whose collections are already on the wire.
func (m *threadMech) requestDelta(mech mechanism.Mechanism, k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env,
	trk checkpoint.Tracker, epoch uint64, rebase bool) (*mechanism.Ticket, error) {
	if m.k != k {
		return nil, mechanism.ErrNotInstalled
	}
	if err := checkStorageKind(mech, tgt); err != nil {
		return nil, err
	}
	if p.Multithreaded() && !mech.Features().Multithreaded {
		return nil, fmt.Errorf("%w: %s cannot checkpoint multithreaded processes", mechanism.ErrUnsupported, m.name)
	}
	if rebase {
		m.seqs.Rebase(p.PID)
	}
	// The tool's open+ioctl+close round trips.
	k.Charge(3*k.CM.Syscall(), "ioctl-tool")
	of, err := k.FS.Open(m.devPath, fs.ORead|fs.OWrite)
	if err != nil {
		return nil, err
	}
	defer of.Close()
	t := &mechanism.Ticket{RequestedAt: k.Now()}
	opts := m.optsFor()
	opts.seqs = m.seqs
	opts.parallelism = m.capturePar
	opts.trk = trk
	opts.epoch = epoch
	req := &ckptRequest{target: p, tgt: tgt, env: env, opts: opts, ticket: t}
	if err := of.Ioctl(nil, IoctlCheckpoint, req); err != nil {
		return nil, err
	}
	return t, nil
}

// CRAK models Zhong & Nieh's CRAK [40]: the first kernel-module
// checkpoint/restart for Linux, a kernel thread reached through a /dev
// node's ioctl interface; migration can be disabled to store the state
// locally or remotely instead.
type CRAK struct {
	threadMech
}

// NewCRAK returns a CRAK instance. The checkpoint thread runs SCHED_FIFO
// (see NewCRAKWithPolicy for the E4 ablation).
func NewCRAK() *CRAK { return NewCRAKWithPolicy(proc.SchedFIFO, 50) }

// NewCRAKWithPolicy returns a CRAK whose kernel thread uses the given
// scheduling class — the ablation axis of §4.1's priority discussion.
func NewCRAKWithPolicy(policy proc.Policy, rtprio int) *CRAK {
	m := &CRAK{threadMech{name: "CRAK", devPath: "/dev/crak", policy: policy, rtprio: rtprio}}
	m.optsFor = func() captureOpts { return captureOpts{mech: "CRAK"} }
	return m
}

// Name implements mechanism.Mechanism.
func (m *CRAK) Name() string { return "CRAK" }

// Features implements mechanism.Mechanism (Table 1 row 4).
func (m *CRAK) Features() taxonomy.Features {
	return taxonomy.Features{
		Name: "CRAK", Context: taxonomy.SystemLevel, Agent: taxonomy.AgentKernelThread,
		Transparent:  true,
		Storage:      []storage.Kind{storage.KindLocal, storage.KindRemote},
		Initiation:   taxonomy.InitUser,
		KernelModule: true,
	}
}

// ModuleName implements kernel.Module.
func (m *CRAK) ModuleName() string { return "crak" }

// Load implements kernel.Module.
func (m *CRAK) Load(k *kernel.Kernel) error { return m.load(k) }

// Unload implements kernel.Module.
func (m *CRAK) Unload(k *kernel.Kernel) error { return m.unload(k) }

// Install implements mechanism.Mechanism.
func (m *CRAK) Install(k *kernel.Kernel) error {
	if k.ModuleLoaded(m.ModuleName()) {
		return nil
	}
	return k.LoadModule(m)
}

// Prepare implements mechanism.Mechanism: fully transparent.
func (m *CRAK) Prepare(prog kernel.Program) kernel.Program { return prog }

// Setup implements mechanism.Mechanism: none required.
func (m *CRAK) Setup(k *kernel.Kernel, p *proc.Process) error { return nil }

// Request implements mechanism.Mechanism.
func (m *CRAK) Request(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*mechanism.Ticket, error) {
	return m.requestDelta(m, k, p, tgt, env, nil, 0, false)
}

// RequestDelta implements mechanism.DeltaRequester: the same ioctl path
// as Request, shipping only the tracker's dirty ranges chained onto the
// previous capture.
func (m *CRAK) RequestDelta(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env,
	trk checkpoint.Tracker, epoch uint64, rebase bool) (*mechanism.Ticket, error) {
	return m.requestDelta(m, k, p, tgt, env, trk, epoch, rebase)
}

// Restart implements mechanism.Mechanism.
func (m *CRAK) Restart(k *kernel.Kernel, chain []*checkpoint.Image, enqueue bool) (*proc.Process, error) {
	return checkpoint.Restore(k, chain, checkpoint.RestoreOptions{Enqueue: enqueue, Parallelism: m.restorePar})
}

// UCLiK models Foster's UCLiK [13]: it "inherits much of the framework of
// CRAK" but restores the original process ID and the contents of deleted
// files; checkpoints are stored locally only.
type UCLiK struct {
	threadMech
}

// NewUCLiK returns a UCLiK instance.
func NewUCLiK() *UCLiK {
	m := &UCLiK{threadMech{name: "UCLiK", devPath: "/dev/uclik", policy: proc.SchedFIFO, rtprio: 50}}
	m.optsFor = func() captureOpts { return captureOpts{mech: "UCLiK"} }
	return m
}

// Name implements mechanism.Mechanism.
func (m *UCLiK) Name() string { return "UCLiK" }

// Features implements mechanism.Mechanism (Table 1 row 5).
func (m *UCLiK) Features() taxonomy.Features {
	return taxonomy.Features{
		Name: "UCLiK", Context: taxonomy.SystemLevel, Agent: taxonomy.AgentKernelThread,
		Transparent:  true,
		Storage:      []storage.Kind{storage.KindLocal},
		Initiation:   taxonomy.InitUser,
		KernelModule: true,
		PreservesPID: true, RestoresDeletedFiles: true,
	}
}

// ModuleName implements kernel.Module.
func (m *UCLiK) ModuleName() string { return "uclik" }

// Load implements kernel.Module.
func (m *UCLiK) Load(k *kernel.Kernel) error { return m.load(k) }

// Unload implements kernel.Module.
func (m *UCLiK) Unload(k *kernel.Kernel) error { return m.unload(k) }

// Install implements mechanism.Mechanism.
func (m *UCLiK) Install(k *kernel.Kernel) error {
	if k.ModuleLoaded(m.ModuleName()) {
		return nil
	}
	return k.LoadModule(m)
}

// Prepare implements mechanism.Mechanism.
func (m *UCLiK) Prepare(prog kernel.Program) kernel.Program { return prog }

// Setup implements mechanism.Mechanism.
func (m *UCLiK) Setup(k *kernel.Kernel, p *proc.Process) error { return nil }

// Request implements mechanism.Mechanism.
func (m *UCLiK) Request(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*mechanism.Ticket, error) {
	return m.requestDelta(m, k, p, tgt, env, nil, 0, false)
}

// Restart implements mechanism.Mechanism: original PID and deleted files
// come back.
func (m *UCLiK) Restart(k *kernel.Kernel, chain []*checkpoint.Image, enqueue bool) (*proc.Process, error) {
	return checkpoint.Restore(k, chain, checkpoint.RestoreOptions{
		Enqueue:             enqueue,
		PreservePID:         true,
		RestoreDeletedFiles: true,
		Parallelism:         m.restorePar,
	})
}

// ZAP models Osman et al.'s ZAP [24]: CRAK's kernel-thread approach plus
// the pod (PrOcess Domain) abstraction that virtualizes PIDs, sockets and
// shared memory so migrated processes find consistent resources on the
// target machine — at the price of system-call interception overhead.
type ZAP struct {
	threadMech
	// InterceptOverhead is charged per intercepted system call.
	InterceptOverhead int // nanoseconds
}

// NewZAP returns a ZAP instance.
func NewZAP() *ZAP {
	m := &ZAP{
		threadMech:        threadMech{name: "ZAP", devPath: "/dev/zap", policy: proc.SchedFIFO, rtprio: 50},
		InterceptOverhead: 300,
	}
	m.optsFor = func() captureOpts { return captureOpts{mech: "ZAP", kernelExtras: true} }
	return m
}

// Name implements mechanism.Mechanism.
func (m *ZAP) Name() string { return "ZAP" }

// Features implements mechanism.Mechanism (Table 1 row 7).
func (m *ZAP) Features() taxonomy.Features {
	return taxonomy.Features{
		Name: "ZAP", Context: taxonomy.SystemLevel, Agent: taxonomy.AgentKernelThread,
		Transparent:          true,
		Initiation:           taxonomy.InitUser,
		KernelModule:         true,
		VirtualizesResources: true, PreservesPID: true,
	}
}

// ModuleName implements kernel.Module.
func (m *ZAP) ModuleName() string { return "zap" }

// Load implements kernel.Module.
func (m *ZAP) Load(k *kernel.Kernel) error { return m.load(k) }

// Unload implements kernel.Module.
func (m *ZAP) Unload(k *kernel.Kernel) error { return m.unload(k) }

// Install implements mechanism.Mechanism.
func (m *ZAP) Install(k *kernel.Kernel) error {
	if k.ModuleLoaded(m.ModuleName()) {
		return nil
	}
	return k.LoadModule(m)
}

// Prepare implements mechanism.Mechanism: pods intercept system calls at
// run time; the application itself is untouched (transparent), but every
// syscall pays the interception tax.
func (m *ZAP) Prepare(prog kernel.Program) kernel.Program {
	return &podShim{inner: prog, overheadNS: int64(m.InterceptOverhead)}
}

// podShim wraps a program inside a pod: per-syscall interception cost.
type podShim struct {
	inner      kernel.Program
	overheadNS int64
}

// Name implements kernel.Program. The pod does not change the program
// identity: migration targets look it up under the same name, so restart
// works whether or not the target kernel wraps it again.
func (s *podShim) Name() string { return s.inner.Name() }

// Init implements kernel.Program: entering the pod assigns the virtual
// PID under which the process will always know itself.
func (s *podShim) Init(ctx *kernel.Context) error {
	ctx.P.Registered["zap-pod"] = true
	ctx.P.VPID = ctx.P.PID
	return s.inner.Init(ctx)
}

// Step implements kernel.Program: run the inner step and charge the
// interception overhead for each system call it made.
func (s *podShim) Step(ctx *kernel.Context) (kernel.Status, error) {
	before := ctx.K.SyscallCount
	st, err := s.inner.Step(ctx)
	if n := ctx.K.SyscallCount - before; n > 0 {
		ctx.K.Charge(simtime.Duration(int64(n)*s.overheadNS), "zap-intercept")
	}
	return st, err
}

// Setup implements mechanism.Mechanism: pod creation for an already
// running process.
func (m *ZAP) Setup(k *kernel.Kernel, p *proc.Process) error {
	p.Registered["zap-pod"] = true
	if p.VPID == 0 {
		p.VPID = p.PID
	}
	return nil
}

// Request implements mechanism.Mechanism: ZAP is migration-oriented with
// no stable storage (Table 1: none); tgt must be nil and the image is
// returned in the ticket.
func (m *ZAP) Request(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*mechanism.Ticket, error) {
	if tgt != nil {
		return nil, fmt.Errorf("syslevel: ZAP migrates process state directly (Table 1 storage: none)")
	}
	return m.requestDelta(m, k, p, nil, env, nil, 0, false)
}

// Restart implements mechanism.Mechanism: full pod restore — the
// process's identity (virtual PID) and its kernel resources come back,
// with no claim on the target machine's real PID space.
func (m *ZAP) Restart(k *kernel.Kernel, chain []*checkpoint.Image, enqueue bool) (*proc.Process, error) {
	return checkpoint.Restore(k, chain, checkpoint.RestoreOptions{
		Enqueue:             enqueue,
		VirtualizePID:       true,
		RecreateKernelState: true,
		Parallelism:         m.restorePar,
	})
}

// PsncRC models Meyer's PsncR/C [22] (ported from SUN platforms): a
// kernel thread in a module, a /proc entry, ioctl-driven, local disk
// only, and no data optimization — code, shared libraries and open files
// are always included in the checkpoint.
type PsncRC struct {
	threadMech
	procPath string
}

// NewPsncRC returns a PsncR/C instance.
func NewPsncRC() *PsncRC {
	m := &PsncRC{
		threadMech: threadMech{name: "PsncR/C", devPath: "/dev/psncrc", policy: proc.SchedFIFO, rtprio: 50},
		procPath:   "/proc/psncrc",
	}
	m.optsFor = func() captureOpts { return captureOpts{mech: "PsncR/C", includeFileContents: true} }
	return m
}

// Name implements mechanism.Mechanism.
func (m *PsncRC) Name() string { return "PsncR/C" }

// Features implements mechanism.Mechanism (Table 1 row 10).
func (m *PsncRC) Features() taxonomy.Features {
	return taxonomy.Features{
		Name: "PsncR/C", Context: taxonomy.SystemLevel, Agent: taxonomy.AgentKernelThread,
		Transparent:  true,
		Storage:      []storage.Kind{storage.KindLocal},
		Initiation:   taxonomy.InitUser,
		KernelModule: true,
	}
}

// ModuleName implements kernel.Module.
func (m *PsncRC) ModuleName() string { return "psncrc" }

// Load implements kernel.Module.
func (m *PsncRC) Load(k *kernel.Kernel) error {
	if err := m.load(k); err != nil {
		return err
	}
	_, err := k.FS.RegisterProc(m.procPath, &fs.ProcOps{
		Read: func(ctx any) ([]byte, error) { return []byte("psncrc ready\n"), nil },
	})
	return err
}

// Unload implements kernel.Module.
func (m *PsncRC) Unload(k *kernel.Kernel) error {
	if err := k.FS.Remove(m.procPath); err != nil {
		return err
	}
	return m.unload(k)
}

// Install implements mechanism.Mechanism.
func (m *PsncRC) Install(k *kernel.Kernel) error {
	if k.ModuleLoaded(m.ModuleName()) {
		return nil
	}
	return k.LoadModule(m)
}

// Prepare implements mechanism.Mechanism.
func (m *PsncRC) Prepare(prog kernel.Program) kernel.Program { return prog }

// Setup implements mechanism.Mechanism.
func (m *PsncRC) Setup(k *kernel.Kernel, p *proc.Process) error { return nil }

// Request implements mechanism.Mechanism.
func (m *PsncRC) Request(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*mechanism.Ticket, error) {
	return m.requestDelta(m, k, p, tgt, env, nil, 0, false)
}

// Restart implements mechanism.Mechanism.
func (m *PsncRC) Restart(k *kernel.Kernel, chain []*checkpoint.Image, enqueue bool) (*proc.Process, error) {
	return checkpoint.Restore(k, chain, checkpoint.RestoreOptions{Enqueue: enqueue, Parallelism: m.restorePar})
}
