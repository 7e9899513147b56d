package syslevel

import (
	"fmt"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/mechanism"
	"repro/internal/simos/fs"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// ioctl request codes for the checkpoint device nodes.
const (
	IoctlCheckpoint uint = 0xC501
	IoctlRestart    uint = 0xC502
)

// threadMech is the kernel-thread family's layer over the mechanism
// core (CRAK, UCLiK, ZAP, PsncR/C, BLCR and LAM/MPI through it, and
// TICK): a loadable module that spawns a checkpoint kernel thread and
// exposes a device node whose ioctl interface receives the pid of the
// process to checkpoint (§4.1 "Kernel thread"). It answers the module
// methods and the capture and restore widths for the whole family; each
// system supplies its rules, device node, scheduling class and capture
// options, and keeps only the methods whose behaviour differs.
type threadMech struct {
	mechanism.Core
	devPath string
	// Policy and rtprio configure the thread's scheduling class; the
	// paper's argument for SCHED_FIFO is an ablation axis (E4).
	policy proc.Policy
	rtprio int
	// optsFor, when set, returns the system's capture options.
	optsFor func() captureOpts
	// preCapture runs in thread context before each capture (BLCR's
	// callback hook).
	preCapture func(k *kernel.Kernel, req *ckptRequest)
	// outer is the concrete system: the module the kernel loads.
	outer kernel.Module

	d *daemon

	// capturePar is the sharded-capture worker-pool width (0 or 1 =
	// sequential), set through mechanism.CaptureParallelizer.
	capturePar int

	// restorePar is the sharded-replay worker-pool width for Restart (0
	// or 1 = sequential), set through mechanism.RestoreParallelizer.
	restorePar int
}

// init gives the family member outer its core over r, whose Restart
// replays at the family's restore width.
func (m *threadMech) init(outer kernel.Module, r mechanism.Rules) {
	r.Width = &m.restorePar
	m.Core, m.outer = mechanism.NewCore(r), outer
}

// ModuleName implements kernel.Module: the device node's name.
func (m *threadMech) ModuleName() string { return strings.TrimPrefix(m.devPath, "/dev/") }

// Load implements kernel.Module: spawn the checkpoint thread and register
// the device node whose ioctl hands it work.
func (m *threadMech) Load(k *kernel.Kernel) error {
	return m.Bind(k, func() error {
		d, err := spawnDaemon(k, &m.Core, m.rtprio, m.policy, m.preCapture)
		if err != nil {
			return err
		}
		_, err = k.FS.RegisterDevice(m.devPath, &fs.DeviceOps{
			Ioctl: func(ctx any, request uint, arg any) error {
				if request != IoctlCheckpoint {
					return fmt.Errorf("%s: unknown ioctl %#x", m.Name(), request)
				}
				req, ok := arg.(*ckptRequest)
				if !ok {
					return fmt.Errorf("%s: bad ioctl argument", m.Name())
				}
				return d.enqueue(req)
			},
		})
		if err != nil {
			return err
		}
		m.d = d
		return nil
	})
}

// Unload implements kernel.Module: release every chain's tracker, stop
// the thread and remove the device node.
func (m *threadMech) Unload(k *kernel.Kernel) error {
	if err := m.Unbind(k); err != nil {
		return err
	}
	k.Exit(m.d.self, 0)
	m.d = nil
	return k.FS.Remove(m.devPath)
}

// Install implements mechanism.Mechanism.
func (m *threadMech) Install(k *kernel.Kernel) error {
	if k.ModuleLoaded(m.ModuleName()) {
		return nil
	}
	return k.LoadModule(m.outer)
}

// Request implements mechanism.Mechanism: the user-level tool's ioctl.
func (m *threadMech) Request(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*mechanism.Ticket, error) {
	return m.ioctl(k, p, tgt, env, nil)
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

// submit is the in-kernel half of every checkpoint request: the core's
// admission rules and thread rule, the capture options, and send, which
// carries the request to the checkpoint thread. A delta request d
// carries the chain knobs an orchestration layer needs for incremental
// shipping: the caller's tracker supplies the dirty ranges, the epoch
// namespaces the object names by incarnation, and a rebase forgets the
// PID's chain so the capture publishes a standalone full image. The
// rebase/tracker contract is the caller's (see
// mechanism.DeltaRequester): a rebase round must pass a nil or fresh
// tracker, never one whose collections are already on the wire.
func (m *threadMech) submit(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env,
	d *mechanism.Delta, send func(*ckptRequest) error) (*mechanism.Ticket, error) {
	if err := m.Admit(k, p, tgt); err != nil {
		return nil, err
	}
	if err := m.CheckThreads(p); err != nil {
		return nil, err
	}
	var opts captureOpts
	if m.optsFor != nil {
		opts = m.optsFor()
	}
	opts.parallelism, opts.delta = m.capturePar, d
	req := &ckptRequest{target: p, tgt: tgt, env: env, opts: opts, ticket: &mechanism.Ticket{}}
	if err := send(req); err != nil {
		return nil, err
	}
	return req.ticket, nil
}

// ioctl is the user-level control tool's front end to submit: it opens
// the device node and issues the checkpoint ioctl, charging the tool's
// open, ioctl and close round trips, and returns the ticket the kernel
// thread will complete. A plain Request passes no delta.
func (m *threadMech) ioctl(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env, d *mechanism.Delta) (*mechanism.Ticket, error) {
	return m.submit(k, p, tgt, env, d, func(req *ckptRequest) error {
		k.Charge(3*k.CM.Syscall(), "ioctl-tool")
		of, err := k.FS.Open(m.devPath, fs.ORead|fs.OWrite)
		if err != nil {
			return err
		}
		defer of.Close()
		return of.Ioctl(nil, IoctlCheckpoint, req)
	})
}

// CRAK models Zhong & Nieh's CRAK [40]: the first kernel-module
// checkpoint/restart for Linux, a kernel thread reached through a /dev
// node's ioctl interface; migration can be disabled to store the state
// locally or remotely instead. Beside TICK it is the family member that
// takes delta requests from the cluster agents (RequestDelta).
type CRAK struct {
	threadMech
}

// NewCRAK returns a CRAK instance. The checkpoint thread runs SCHED_FIFO
// (see NewCRAKWithPolicy for the E4 ablation).
func NewCRAK() *CRAK { return NewCRAKWithPolicy(proc.SchedFIFO, 50) }

// NewCRAKWithPolicy returns a CRAK whose kernel thread uses the given
// scheduling class — the ablation axis of §4.1's priority discussion.
// Its features are Table 1 row 4.
func NewCRAKWithPolicy(policy proc.Policy, rtprio int) *CRAK {
	m := &CRAK{threadMech{devPath: "/dev/crak", policy: policy, rtprio: rtprio}}
	m.init(m, mechanism.Rules{Features: taxonomy.Features{
		Name: "CRAK", Context: taxonomy.SystemLevel, Agent: taxonomy.AgentKernelThread,
		Transparent:  true,
		Storage:      []storage.Kind{storage.KindLocal, storage.KindRemote},
		Initiation:   taxonomy.InitUser,
		KernelModule: true,
	}})
	return m
}

// RequestDelta implements mechanism.DeltaRequester: the same ioctl path
// as Request, shipping only the tracker's dirty ranges chained onto the
// previous capture.
func (m *CRAK) RequestDelta(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env,
	trk checkpoint.Tracker, epoch uint64, rebase bool) (*mechanism.Ticket, error) {
	return m.ioctl(k, p, tgt, env, &mechanism.Delta{Trk: trk, Epoch: epoch, Rebase: rebase})
}

// UCLiK models Foster's UCLiK [13]: it "inherits much of the framework of
// CRAK" but restores the original process ID and the contents of deleted
// files; checkpoints are stored locally only.
type UCLiK struct {
	threadMech
}

// NewUCLiK returns a UCLiK instance (Table 1 row 5). Its restarts bring
// back the original PID and deleted files.
func NewUCLiK() *UCLiK {
	m := &UCLiK{threadMech{devPath: "/dev/uclik", policy: proc.SchedFIFO, rtprio: 50}}
	m.init(m, mechanism.Rules{
		Features: taxonomy.Features{
			Name: "UCLiK", Context: taxonomy.SystemLevel, Agent: taxonomy.AgentKernelThread,
			Transparent:  true,
			Storage:      []storage.Kind{storage.KindLocal},
			Initiation:   taxonomy.InitUser,
			KernelModule: true,
			PreservesPID: true, RestoresDeletedFiles: true,
		},
		Restore: checkpoint.RestoreOptions{PreservePID: true, RestoreDeletedFiles: true},
	})
	return m
}

// ZAP models Osman et al.'s ZAP [24]: CRAK's kernel-thread approach plus
// the pod (PrOcess Domain) abstraction that virtualizes PIDs, sockets and
// shared memory so migrated processes find consistent resources on the
// target machine — at the price of system-call interception overhead.
// It is migration-oriented with no stable storage (Table 1: none): a
// Request takes no target and the image is returned in the ticket.
type ZAP struct {
	threadMech
	// InterceptOverhead is charged per intercepted system call.
	InterceptOverhead int // nanoseconds
}

// NewZAP returns a ZAP instance (Table 1 row 7). Its captures take the
// pod's sockets and shared memory along, and its restarts are full pod
// restores: the process's identity (virtual PID) and its kernel
// resources come back, with no claim on the target machine's real PID
// space.
func NewZAP() *ZAP {
	m := &ZAP{
		threadMech: threadMech{devPath: "/dev/zap", policy: proc.SchedFIFO, rtprio: 50,
			optsFor: func() captureOpts { return captureOpts{kernelExtras: true} }},
		InterceptOverhead: 300,
	}
	m.init(m, mechanism.Rules{
		Features: taxonomy.Features{
			Name: "ZAP", Context: taxonomy.SystemLevel, Agent: taxonomy.AgentKernelThread,
			Transparent:          true,
			Initiation:           taxonomy.InitUser,
			KernelModule:         true,
			VirtualizesResources: true, PreservesPID: true,
		},
		Restore: checkpoint.RestoreOptions{VirtualizePID: true, RecreateKernelState: true},
	})
	return m
}

// Prepare implements mechanism.Mechanism: pods intercept system calls at
// run time; the application itself is untouched (transparent), but every
// syscall pays the interception tax. Entering the pod assigns the virtual
// PID under which the process will always know itself.
func (m *ZAP) Prepare(prog kernel.Program) kernel.Program {
	return &mechanism.Shim{Inner: prog, OverheadNS: int64(m.InterceptOverhead), Label: "zap-intercept",
		Enter: func(ctx *kernel.Context) {
			ctx.P.Registered["zap-pod"] = true
			ctx.P.VPID = ctx.P.PID
		}}
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

// PsncRC models Meyer's PsncR/C [22] (ported from SUN platforms): a
// kernel thread in a module, a /proc entry, ioctl-driven, local disk
// only, and no data optimization — code, shared libraries and open files
// are always included in the checkpoint.
type PsncRC struct {
	threadMech
	procPath string
}

// NewPsncRC returns a PsncR/C instance (Table 1 row 10).
func NewPsncRC() *PsncRC {
	m := &PsncRC{
		threadMech: threadMech{devPath: "/dev/psncrc", policy: proc.SchedFIFO, rtprio: 50,
			optsFor: func() captureOpts { return captureOpts{includeFileContents: true} }},
		procPath: "/proc/psncrc",
	}
	m.init(m, mechanism.Rules{Features: taxonomy.Features{
		Name: "PsncR/C", Context: taxonomy.SystemLevel, Agent: taxonomy.AgentKernelThread,
		Transparent:  true,
		Storage:      []storage.Kind{storage.KindLocal},
		Initiation:   taxonomy.InitUser,
		KernelModule: true,
	}})
	return m
}

// Load implements kernel.Module: the family's module plus the /proc
// entry.
func (m *PsncRC) Load(k *kernel.Kernel) error {
	if err := m.threadMech.Load(k); err != nil {
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
	return m.threadMech.Unload(k)
}
