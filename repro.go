package repro

import (
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/hardware"
	"repro/internal/mechanism"
	"repro/internal/mpi"
	"repro/internal/policy"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/syslevel"
	"repro/internal/taxonomy"
	"repro/internal/userlevel"
	"repro/internal/workload"
)

// Core simulated-OS types.
type (
	// Kernel is one simulated machine.
	Kernel = kernel.Kernel
	// Registry holds simulated executables by name.
	Registry = kernel.Registry
	// Program is simulated executable code (all state in registers and
	// simulated memory; see internal/simos/kernel).
	Program = kernel.Program
	// Context is the syscall/memory interface handed to programs.
	Context = kernel.Context
	// Process is one simulated process.
	Process = proc.Process
	// PID identifies a process.
	PID = proc.PID

	// Duration and Time are simulated-clock units (nanoseconds).
	Duration = simtime.Duration
	// Time is an instant of simulated time.
	Time = simtime.Time

	// CostModel holds the per-operation costs driving all timing.
	CostModel = costmodel.Model
)

// Simulated-time units.
const (
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
	Minute      = simtime.Minute
	Hour        = simtime.Hour
)

// Checkpoint/restart core types.
type (
	// Mechanism is one checkpoint/restart implementation (any of the
	// twelve surveyed systems, the user-level schemes, or TICK).
	Mechanism = mechanism.Mechanism
	// Ticket tracks an asynchronous checkpoint request.
	Ticket = mechanism.Ticket
	// Image is one checkpoint of one process.
	Image = checkpoint.Image
	// Features is a mechanism's (extended) Table 1 row.
	Features = taxonomy.Features
	// StorageTarget is a place checkpoints are stored.
	StorageTarget = storage.Target
)

// NewRegistry returns an empty program registry.
func NewRegistry() *Registry { return kernel.NewRegistry() }

// Default2005 returns the reference cost model (2005-era hardware, the
// machines the paper discusses).
func Default2005() *CostModel { return costmodel.Default2005() }

// NewMachine builds a simulated machine with the default configuration
// and cost model.
func NewMachine(hostname string, reg *Registry) *Kernel {
	return kernel.New(kernel.DefaultConfig(hostname), costmodel.Default2005(), reg)
}

// NewLocalDisk returns an always-available local disk target.
func NewLocalDisk(name string) *storage.Store {
	return storage.NewLocal(name, costmodel.Default2005(), nil)
}

// NewCheckpointServer returns a remote checkpoint server and a client for
// it (the paper's "remote" stable storage).
func NewCheckpointServer(name string) (*storage.Server, *storage.Store) {
	srv := storage.NewServer(name, costmodel.Default2005())
	return srv, storage.NewRemote(name+"-client", srv)
}

// Checkpoint requests a checkpoint of p through m's native initiation
// path and waits for it to complete.
func Checkpoint(m Mechanism, k *Kernel, p *Process, tgt StorageTarget) (*Ticket, error) {
	return mechanism.Checkpoint(m, k, p, tgt, nil)
}

// LoadChain reads the image chain ending at leaf from a storage target,
// verifying its structural integrity.
func LoadChain(tgt StorageTarget, leaf string) ([]*Image, error) {
	return checkpoint.LoadChain(tgt, nil, leaf)
}

// VerifyChain checks a restore chain's structural invariants.
func VerifyChain(chain []*Image) error { return checkpoint.VerifyChain(chain) }

// Coalesce merges a restore chain into one equivalent full image,
// bounding restart latency without losing state.
func Coalesce(chain []*Image) (*Image, error) { return checkpoint.FoldChain(chain) }

// Fingerprint returns a workload's observable result register; two runs
// are equivalent iff their fingerprints match.
func Fingerprint(p *Process) uint64 { return workload.Fingerprint(p) }

// SetIterations bounds a freshly spawned workload.
func SetIterations(p *Process, n uint64) { workload.SetIterations(p, n) }

// --- The surveyed mechanisms (Table 1) ---

// NewVMADump returns the VMADump mechanism [17]: checkpoint system calls
// invoked by the (modified) application on itself.
func NewVMADump(every uint64, tgt StorageTarget) Mechanism { return syslevel.NewVMADump(every, tgt) }

// NewBProc returns the BProc mechanism [18]: VMADump-based process
// migration with no stable storage.
func NewBProc() Mechanism { return syslevel.NewBProc() }

// NewEPCKPT returns the EPCKPT mechanism [26]: a new kernel signal plus
// launch-tool registration.
func NewEPCKPT() Mechanism { return syslevel.NewEPCKPT() }

// NewCRAK returns the CRAK mechanism [40]: a kernel-module kernel thread
// driven through /dev ioctl.
func NewCRAK() Mechanism { return syslevel.NewCRAK() }

// NewUCLiK returns the UCLiK mechanism [13]: CRAK's framework plus
// original-PID restoration and deleted-file recovery, local storage only.
func NewUCLiK() Mechanism { return syslevel.NewUCLiK() }

// NewCHPOX returns the CHPOX mechanism [36]: a kernel module with a
// /proc registration entry and SIGSYS as the checkpoint signal.
func NewCHPOX() Mechanism { return syslevel.NewCHPOX() }

// NewZAP returns the ZAP mechanism [24]: CRAK plus pod virtualization of
// PIDs, sockets and shared memory, for transparent migration.
func NewZAP() Mechanism { return syslevel.NewZAP() }

// NewBLCR returns Berkeley Lab's BLCR [11]: kernel-module kernel thread,
// multithread-capable, with a mandatory user-space init phase.
func NewBLCR() Mechanism { return syslevel.NewBLCR() }

// NewLAMMPI returns the LAM/MPI framework [32]: BLCR per process,
// coordinated by the MPI layer (see NewParallelJob).
func NewLAMMPI() Mechanism { return syslevel.NewLAMMPI() }

// NewPsncRC returns PsncR/C [22]: kernel thread, /proc + ioctl, local
// disk, no data optimization.
func NewPsncRC() Mechanism { return syslevel.NewPsncRC() }

// NewSoftwareSuspend returns swsusp [6]: whole-machine hibernation via a
// kernel freeze signal and a swap image.
func NewSoftwareSuspend() *syslevel.SoftwareSuspend { return syslevel.NewSoftwareSuspend() }

// NewCheckpointFork returns "Checkpoint" [5]: checkpoint system calls
// with fork-based consistency so the application runs on during the save.
func NewCheckpointFork(every uint64, tgt StorageTarget) Mechanism {
	return syslevel.NewCheckpointFork(every, tgt)
}

// NewTICK returns the paper's proposed direction: a Transparent
// Incremental Checkpointer at Kernel level with automatic initiation.
func NewTICK() *syslevel.TICK { return syslevel.NewTICK() }

// --- User-level schemes (§3) ---

// NewLibCkpt returns libckpt-class library checkpointing [27].
func NewLibCkpt(every uint64, tgt StorageTarget, incremental bool) Mechanism {
	return userlevel.NewLibCkpt(every, tgt, incremental)
}

// NewCondorStyle returns Condor-style signal-handler checkpointing [21].
func NewCondorStyle() Mechanism { return userlevel.NewCondorStyle() }

// NewEskyStyle returns Esky-style SIGALRM-timer checkpointing [15].
func NewEskyStyle(interval Duration, tgt StorageTarget) Mechanism {
	return userlevel.NewEskyStyle(interval, tgt)
}

// NewPreloadShim returns LD_PRELOAD interposition checkpointing.
func NewPreloadShim() Mechanism { return userlevel.NewPreloadShim() }

// NewLibTckpt returns libtckpt, the multithreaded user-level scheme [10].
func NewLibTckpt(every uint64, tgt StorageTarget) Mechanism {
	return userlevel.NewLibTckpt(every, tgt)
}

// --- Hardware schemes (§4.2) ---

// NewReVive returns the ReVive directory-logging model [29].
func NewReVive() *hardware.ReVive { return hardware.NewReVive() }

// NewSafetyNet returns the SafetyNet checkpoint-log-buffer model [34]
// with the given CLB capacity in cache lines.
func NewSafetyNet(clbLines int) *hardware.SafetyNet { return hardware.NewSafetyNet(clbLines) }

// --- Workloads ---

// Workload programs spanning the write-density/locality space of [31].
type (
	// Dense rewrites its whole working set every iteration.
	Dense = workload.Dense
	// Sparse writes a pseudo-random fraction of pages per iteration.
	Sparse = workload.Sparse
	// Stencil alternates between two grids (half-arena deltas).
	Stencil = workload.Stencil
	// PointerChase reads widely and writes rarely.
	PointerChase = workload.PointerChase
	// Phased alternates dense and quiet phases.
	Phased = workload.Phased
	// MultiThreaded runs several threads over a shared arena.
	MultiThreaded = workload.MultiThreaded
	// ResourceUser exercises sockets, shared memory, and PID identity.
	ResourceUser = workload.ResourceUser
	// Spin is a pure-CPU background load.
	Spin = workload.Spin
)

// Suite returns the named application profiles modeled after the
// scientific codes of the authors' feasibility study [31]: SAGE, Sweep3D,
// SP, an FFT-class phased code, and an N-body-class tree walker.
func Suite(mib int) []Program { return workload.Suite(mib) }

// --- Cluster fault tolerance (§1) ---

type (
	// Cluster is a set of co-simulated machines with failure injection.
	Cluster = cluster.Cluster
	// ClusterConfig tunes a cluster.
	ClusterConfig = cluster.Config
	// Supervisor runs one job under failures with checkpoint/restart.
	Supervisor = cluster.Supervisor
	// SupervisorConfig configures NewSupervisor.
	SupervisorConfig = cluster.SupervisorConfig
	// PipelineConfig turns on the agents' pipelined shipping path.
	PipelineConfig = cluster.PipelineConfig
	// JobConfig drives the analytic job model.
	JobConfig = cluster.JobConfig
	// JobResult is an analytic run summary.
	JobResult = cluster.JobResult
	// Gang is a coscheduled process set with safe preemption.
	Gang = cluster.Gang
	// GangMember identifies one gang process.
	GangMember = cluster.GangMember

	// PolicySpec is the unified checkpoint policy: cadence strategy
	// (fixed / youngdaly) with its parameters plus the delta
	// content policy (all dirty pages, or live pages only).
	PolicySpec = policy.Spec
	// PolicyEngine computes the live cadence from the policy spec, the
	// online MTBF estimate, and measured capture cost.
	PolicyEngine = policy.Engine
)

// NewCluster builds an n-node cluster sharing reg.
func NewCluster(n int, seed int64, reg *Registry) *Cluster {
	return cluster.New(cluster.Config{Nodes: n, Seed: seed, KernelCfg: kernel.DefaultConfig("")},
		costmodel.Default2005(), reg)
}

// NewSupervisor validates cfg, applies defaults (policy engine, rebase
// cadence, metrics), and returns a ready Supervisor.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) { return cluster.NewSupervisor(cfg) }

// MustNewSupervisor is NewSupervisor that panics on a config error — for
// call sites whose config is statically known valid.
func MustNewSupervisor(cfg SupervisorConfig) *Supervisor { return cluster.MustNewSupervisor(cfg) }

// FixedPolicy checkpoints every interval — the classic configured
// cadence as a policy spec.
func FixedPolicy(interval Duration) PolicySpec { return policy.Fixed(interval) }

// YoungDalyPolicy starts at base and re-derives the Young optimal
// interval from observed failures and measured capture cost.
func YoungDalyPolicy(base Duration) PolicySpec { return policy.YoungDaly(base) }

// YoungInterval is Young's optimal checkpoint interval √(2δM).
func YoungInterval(ckptCost, mtbf Duration) Duration { return policy.Young(ckptCost, mtbf) }

// DalyInterval is Daly's higher-order refinement.
func DalyInterval(ckptCost, mtbf Duration) Duration { return policy.Daly(ckptCost, mtbf) }

// --- Parallel jobs (LAM/MPI, CoCheck) ---

type (
	// ParallelJob is an MPI-style job with coordinated checkpointing.
	ParallelJob = mpi.Job
	// HaloRing is the ring-exchange parallel workload.
	HaloRing = mpi.HaloRing
)

// NewParallelJob creates an n-rank job on c, checkpointed per node with
// LAM/MPI (BLCR + coordination).
func NewParallelJob(c *Cluster, nRanks int) *ParallelJob {
	return mpi.NewJob(c, nRanks, func() Mechanism { return syslevel.NewLAMMPI() })
}

// --- Survey artifacts ---

// Table1 renders the feature matrix probed from the live implementations
// (the reproduction of the paper's Table 1).
func Table1() string {
	return taxonomy.RenderTable(ProbeTable1())
}

// ProbeTable1 returns the twelve mechanisms' probed feature rows.
func ProbeTable1() []Features {
	ms := []Mechanism{
		NewVMADump(0, nil), NewBProc(), NewEPCKPT(), NewCRAK(), NewUCLiK(),
		NewCHPOX(), NewZAP(), NewBLCR(), NewLAMMPI(), NewPsncRC(),
		NewSoftwareSuspend(), NewCheckpointFork(0, nil),
	}
	out := make([]Features, 0, len(ms))
	for _, m := range ms {
		out = append(out, m.Features())
	}
	return out
}

// Table1Diff compares the probed matrix against the paper's published
// rows; empty means exact reproduction.
func Table1Diff() []string { return taxonomy.DiffTable(ProbeTable1()) }

// Figure1 renders the paper's classification tree.
func Figure1() string { return taxonomy.RenderTree(taxonomy.Figure1()) }
