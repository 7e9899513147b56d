// Package proc models processes and threads: PIDs, simulated registers,
// file-descriptor tables, signal state, scheduling class, and the process
// table. Everything a checkpoint must capture hangs off Process; the
// design keeps all mutable program state in Regs + the address space so
// that restart is exact (DESIGN.md §4).
package proc

import (
	"fmt"
	"sort"

	"repro/internal/simos/fs"
	"repro/internal/simos/mem"
	"repro/internal/simos/sig"
	"repro/internal/simtime"
)

// PID identifies a process.
type PID int

// TID identifies a thread within a process.
type TID int

// State is a process's life-cycle state.
type State uint8

// Process states.
const (
	StateReady State = iota
	StateRunning
	StateBlocked // waiting for an external event (I/O, message, timer)
	StateStopped // frozen (SIGSTOP / checkpoint freeze / hibernation)
	StateZombie  // exited, not yet reaped
	StateDead
)

func (s State) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateStopped:
		return "stopped"
	case StateZombie:
		return "zombie"
	case StateDead:
		return "dead"
	}
	return "?"
}

// Policy is the scheduling class.
type Policy uint8

// Scheduling classes. The paper (§4.1) contrasts ordinary time-sharing
// (dynamic priority, checkpoint code can be preempted) with SCHED_FIFO
// kernel threads that run to completion once started.
const (
	SchedOther Policy = iota
	SchedFIFO
)

func (p Policy) String() string {
	if p == SchedFIFO {
		return "SCHED_FIFO"
	}
	return "SCHED_OTHER"
}

// NumGRegs is the number of simulated general-purpose registers.
const NumGRegs = 8

// Regs is the simulated register file. Programs keep every scalar they
// need across steps here, so that saving Regs + memory captures the whole
// execution state.
type Regs struct {
	PC uint64 // program counter: the program's step/phase counter
	SP uint64 // stack pointer
	G  [NumGRegs]uint64
}

// Thread is one schedulable context of a process.
type Thread struct {
	TID   TID
	Regs  Regs
	State State
}

// FDInfo is the checkpointable description of one descriptor.
type FDInfo struct {
	FD     int
	Path   string
	Flags  fs.OpenFlags
	Offset int64
	// Deleted marks descriptors whose file was unlinked; their contents
	// must travel with the checkpoint (UCLiK).
	Deleted bool
}

// Process is one simulated process.
type Process struct {
	PID  PID
	PPID PID
	// VPID, when nonzero, is the virtualized process ID a pod exposes to
	// the process itself (ZAP [24]): getpid() returns VPID, so a restart
	// can preserve the process's identity without claiming the real PID.
	VPID PID
	Exe  string // program registry key, the moral equivalent of the executable path
	Args []string

	AS      *mem.AddressSpace
	Sig     *sig.State
	fds     map[int]*fs.OpenFile
	Threads []*Thread

	State  State
	Policy Policy
	// StaticPrio is the nice-derived base priority for SchedOther (higher
	// is better here, range 0..39) or the real-time priority for SchedFIFO.
	StaticPrio int
	// Counter is the remaining time-slice credit (Linux 2.4-style
	// goodness); the scheduler decays and replenishes it.
	Counter int

	// KernelThread marks kernel daemons: they have no user address space
	// of their own and borrow the page tables of the task they interrupt
	// (§4.1), which is what makes their address-space-switch cost model
	// interesting.
	KernelThread bool

	// KProg holds a kernel thread's program value directly (kernel
	// threads are never checkpointed, so they may carry Go state and
	// need not live in the exec registry). Interpreted by the kernel.
	KProg any

	// InNonReentrant is set by programs while inside a malloc/free-class
	// function; delivering a non-reentrant signal handler now models the
	// deadlock hazard of §3.
	InNonReentrant bool

	// Registered tracks per-mechanism registration (BLCR's init phase,
	// CHPOX's /proc registration, EPCKPT's launch-tool tracing).
	Registered map[string]bool

	// CkptRegions are the application's declarative checkpoint-region
	// annotations (see region.go): protect pins pages into every capture,
	// exclude drops them. Declared via the CheckpointRegion syscall.
	CkptRegions []CkptRegion

	// ReplayBytes is what the eager restore that made the process
	// replayed into its memory: its chain's bytes after per-page
	// last-writer-wins pruning (checkpoint.ReplayBytes of the chain,
	// handed back so a caller need not plan the chain again). Zero for a
	// process that was not restored eagerly.
	ReplayBytes int

	CPUTime  simtime.Duration
	ExitCode int

	// WaitReason describes why the process is blocked, for diagnostics
	// and for the paper's "invalid state" discussion (waiting on an
	// external event that a checkpoint cannot capture).
	WaitReason string
}

// New returns a process with one thread, an empty fd table and default
// signal state.
func New(pid, ppid PID, exe string) *Process {
	return &Process{
		PID:        pid,
		PPID:       ppid,
		Exe:        exe,
		AS:         mem.NewAddressSpace(),
		Sig:        sig.NewState(),
		fds:        make(map[int]*fs.OpenFile),
		Threads:    []*Thread{{TID: 1}},
		State:      StateReady,
		StaticPrio: 20,
		Counter:    QuantumCredits,
		Registered: make(map[string]bool),
	}
}

// QuantumCredits is the fresh time-slice credit of a SchedOther task:
// a new process starts with it, and the scheduler adds it to every
// task's halved counter at each epoch.
const QuantumCredits = 6

// MainThread returns the first thread.
func (p *Process) MainThread() *Thread { return p.Threads[0] }

// Regs returns the main thread's registers (single-threaded convenience).
func (p *Process) Regs() *Regs { return &p.MainThread().Regs }

// AddThread creates a new thread and returns it.
func (p *Process) AddThread() *Thread {
	t := &Thread{TID: TID(len(p.Threads) + 1)}
	p.Threads = append(p.Threads, t)
	return t
}

// Multithreaded reports whether the process has more than one thread.
// Several surveyed mechanisms checkpoint only single-threaded processes.
func (p *Process) Multithreaded() bool { return len(p.Threads) > 1 }

// InstallFD places of at the lowest free descriptor ≥ 0 and returns it.
func (p *Process) InstallFD(of *fs.OpenFile) int {
	fd := 0
	for {
		if _, used := p.fds[fd]; !used {
			p.fds[fd] = of
			return fd
		}
		fd++
	}
}

// InstallFDAt places of at a specific descriptor (restart path).
func (p *Process) InstallFDAt(fd int, of *fs.OpenFile) { p.fds[fd] = of }

// FD returns the open file at fd.
func (p *Process) FD(fd int) (*fs.OpenFile, error) {
	of, ok := p.fds[fd]
	if !ok {
		return nil, fmt.Errorf("proc: pid %d: bad fd %d", p.PID, fd)
	}
	return of, nil
}

// CloseFD removes and closes fd.
func (p *Process) CloseFD(fd int) error {
	of, ok := p.fds[fd]
	if !ok {
		return fmt.Errorf("proc: pid %d: bad fd %d", p.PID, fd)
	}
	of.Close()
	delete(p.fds, fd)
	return nil
}

// FDs returns the descriptor table as checkpointable metadata, in fd order.
func (p *Process) FDs() []FDInfo {
	fds := make([]int, 0, len(p.fds))
	for fd := range p.fds {
		fds = append(fds, fd)
	}
	sort.Ints(fds)
	out := make([]FDInfo, 0, len(fds))
	for _, fd := range fds {
		of := p.fds[fd]
		info := FDInfo{FD: fd, Path: of.Node.Path, Flags: of.Flags, Offset: of.Offset()}
		if of.Node.Kind == fs.KindRegular {
			info.Deleted = of.Node.Inode().Deleted()
		}
		out = append(out, info)
	}
	return out
}

// OpenFDs returns the live open-file descriptions keyed by fd.
func (p *Process) OpenFDs() map[int]*fs.OpenFile {
	out := make(map[int]*fs.OpenFile, len(p.fds))
	for fd, of := range p.fds {
		out[fd] = of
	}
	return out
}

// Runnable reports whether the scheduler may pick the process.
func (p *Process) Runnable() bool { return p.State == StateReady || p.State == StateRunning }

func (p *Process) String() string {
	return fmt.Sprintf("pid %d (%s) %s", p.PID, p.Exe, p.State)
}

// Table is the system process table.
type Table struct {
	nextPID PID
	procs   map[PID]*Process
}

// NewTable returns a table that allocates PIDs from 1.
func NewTable() *Table {
	return &Table{nextPID: 1, procs: make(map[PID]*Process)}
}

// Allocate creates a process with a fresh PID.
func (t *Table) Allocate(ppid PID, exe string) *Process {
	pid := t.nextPID
	t.nextPID++
	p := New(pid, ppid, exe)
	t.procs[pid] = p
	return p
}

// Insert places an existing process (restart with restored PID, UCLiK) at
// its recorded PID. Fails if the PID is taken.
func (t *Table) Insert(p *Process) error {
	if _, ok := t.procs[p.PID]; ok {
		return fmt.Errorf("proc: pid %d already in use", p.PID)
	}
	t.procs[p.PID] = p
	if p.PID >= t.nextPID {
		t.nextPID = p.PID + 1
	}
	return nil
}

// Lookup returns the process with the given pid.
func (t *Table) Lookup(pid PID) (*Process, error) {
	p, ok := t.procs[pid]
	if !ok {
		return nil, fmt.Errorf("proc: no such pid %d", pid)
	}
	return p, nil
}

// Remove deletes a process from the table.
func (t *Table) Remove(pid PID) { delete(t.procs, pid) }

// All returns every process in PID order.
func (t *Table) All() []*Process {
	pids := make([]PID, 0, len(t.procs))
	for pid := range t.procs {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	out := make([]*Process, 0, len(pids))
	for _, pid := range pids {
		out = append(out, t.procs[pid])
	}
	return out
}

// Len returns the number of processes.
func (t *Table) Len() int { return len(t.procs) }
