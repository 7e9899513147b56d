// Package mechanism defines the common shape of every checkpoint/restart
// implementation in the survey (packages userlevel and syslevel) and the
// one Core they all embed. A Mechanism bundles four things the paper's
// taxonomy separates:
//
//   - installation (static kernel change vs loadable module vs nothing),
//   - per-process preparation (the transparency question: does the
//     application need to be modified/wrapped/registered?),
//   - the initiation path (self-call, user signal, kernel signal, ioctl
//     to a kernel thread) through which a checkpoint request travels, and
//   - the restart path with its mechanism-specific capabilities
//     (PID preservation, deleted files, resource virtualization).
package mechanism

import (
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// Ticket tracks one asynchronous checkpoint request from initiation to
// completion. The RequestedAt→StartedAt gap is the initiation delay the
// paper discusses (deferred signal delivery, kernel-thread wakeup);
// StartedAt→CompletedAt is the capture itself.
type Ticket struct {
	Done        bool
	Err         error
	Img         *checkpoint.Image
	Stats       checkpoint.Stats
	RequestedAt simtime.Time
	StartedAt   simtime.Time
	CompletedAt simtime.Time
}

// InitiationDelay returns how long the request waited before capture began.
func (t *Ticket) InitiationDelay() simtime.Duration { return t.StartedAt.Sub(t.RequestedAt) }

// CaptureTime returns the duration of the capture itself.
func (t *Ticket) CaptureTime() simtime.Duration { return t.CompletedAt.Sub(t.StartedAt) }

// Total returns request-to-completion latency.
func (t *Ticket) Total() simtime.Duration { return t.CompletedAt.Sub(t.RequestedAt) }

// Mechanism is one checkpoint/restart implementation.
type Mechanism interface {
	// Name matches the system's name in the paper (and Table 1 where
	// applicable).
	Name() string
	// Features returns the probed Table 1 row / taxonomy position.
	Features() taxonomy.Features
	// Install puts the mechanism into the kernel: loads the module or
	// applies the static-kernel change (registers syscalls/signals/
	// devices). Idempotent per kernel.
	Install(k *kernel.Kernel) error
	// Prepare returns the program to spawn in place of prog. Transparent
	// mechanisms return prog unchanged; non-transparent ones wrap it
	// (the modify/recompile/relink step of §3).
	Prepare(prog kernel.Program) kernel.Program
	// Setup performs post-spawn registration for mechanisms that need it
	// (BLCR's init phase, CHPOX's /proc registration, EPCKPT's launch
	// tool). No-op where not required.
	Setup(k *kernel.Kernel, p *proc.Process) error
	// Request initiates a checkpoint of p to tgt through the mechanism's
	// native path. Completion is asynchronous; wait with WaitTicket.
	Request(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*Ticket, error)
	// Restart restores a process from an image chain on k.
	Restart(k *kernel.Kernel, chain []*checkpoint.Image, enqueue bool) (*proc.Process, error)
}

// DeltaRequester is implemented by mechanisms whose initiation path can
// ship tracker-driven incremental deltas for an orchestration layer that
// owns the chain policy (the cluster's node-local agents).
type DeltaRequester interface {
	Mechanism
	// RequestDelta initiates a checkpoint of p to tgt chained onto the
	// mechanism's previous capture of p. trk supplies the dirty ranges;
	// nil captures everything resident. rebase forgets the existing chain
	// first, so the capture publishes a standalone full image — callers
	// must pass a nil (or fresh, never-collected) trk on rebase rounds,
	// since a full image built from one epoch's dirty set would be a
	// silent hole. epoch namespaces the chain's object names so chains
	// from different incarnations cannot collide on a reused PID.
	// Completion is asynchronous; wait with WaitTicket.
	RequestDelta(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env,
		trk checkpoint.Tracker, epoch uint64, rebase bool) (*Ticket, error)
}

// CaptureParallelizer is implemented by mechanisms whose capture path
// can shard the payload read and image encode across a worker pool (the
// kernel-thread family). Orchestration layers set the width once after
// Install; mechanisms without the method simply capture sequentially.
type CaptureParallelizer interface {
	// SetCaptureParallelism sets the worker-pool width for subsequent
	// captures (0 or 1 = sequential). Results are byte-identical at any
	// width; only the simulated capture time changes.
	SetCaptureParallelism(workers int)
}

// RestoreParallelizer is the restart-side mirror of CaptureParallelizer:
// mechanisms whose Restart can shard chain replay across a worker pool.
// Orchestration layers set the width once after Install; mechanisms
// without the method replay sequentially.
type RestoreParallelizer interface {
	// SetRestoreParallelism sets the worker-pool width for subsequent
	// restarts (0 or 1 = sequential). Restored memory is byte-identical
	// at any width; only the simulated restore time changes.
	SetRestoreParallelism(workers int)
}

// LazyRestarter is implemented by mechanisms whose restart path can
// resume a process before the full chain is read: the leaf's hot working
// set is applied eagerly, control returns, and the remaining pages are
// served on demand (and by a background prefetcher) from the returned
// session — checkpoint.LazyRestore's restart-before-read protocol.
// Mechanisms without the method restart eagerly via Restart.
type LazyRestarter interface {
	// RestartLazy restores a process from the chain's leaf image alone,
	// deferring ancestor reads to the returned session's demand-fault
	// service. The mechanism applies its configured restore parallelism.
	RestartLazy(k *kernel.Kernel, leaf *checkpoint.Image, opt checkpoint.LazyOptions) (*proc.Process, *checkpoint.LazySession, error)
}

// ErrUnsupported is returned when a mechanism cannot handle the process
// (e.g. a single-threaded-only checkpointer asked to capture threads).
var ErrUnsupported = errors.New("mechanism: unsupported process")

// ErrNotInstalled is returned by Request before Install.
var ErrNotInstalled = errors.New("mechanism: not installed in this kernel")

// ErrNotRegistered is returned when Setup was required but skipped.
var ErrNotRegistered = errors.New("mechanism: process not registered")

// WaitTicket runs the kernel until the ticket completes or the budget
// elapses.
func WaitTicket(k *kernel.Kernel, t *Ticket, budget simtime.Duration) error {
	deadline := k.Now().Add(budget)
	for !t.Done && k.Now() < deadline {
		k.RunFor(100 * simtime.Microsecond)
	}
	if !t.Done {
		return fmt.Errorf("mechanism: checkpoint did not complete within %v", budget)
	}
	return t.Err
}

// Checkpoint is the synchronous convenience wrapper: Request + WaitTicket.
func Checkpoint(m Mechanism, k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*Ticket, error) {
	t, err := m.Request(k, p, tgt, env)
	if err != nil {
		return nil, err
	}
	if err := WaitTicket(k, t, 5*simtime.Minute); err != nil {
		return t, err
	}
	return t, nil
}

// Seqs allocates monotone checkpoint sequence numbers per PID and
// remembers the previous image name for incremental chaining.
type Seqs struct {
	seq    map[proc.PID]uint64
	parent map[proc.PID]string
}

// NewSeqs returns an empty sequence tracker.
func NewSeqs() *Seqs {
	return &Seqs{seq: make(map[proc.PID]uint64), parent: make(map[proc.PID]string)}
}

// Next returns the next sequence number and the parent object name.
func (s *Seqs) Next(pid proc.PID) (uint64, string) {
	s.seq[pid]++
	return s.seq[pid], s.parent[pid]
}

// Commit records img as the latest image for its PID.
func (s *Seqs) Commit(img *checkpoint.Image) {
	s.parent[img.PID] = img.ObjectName()
}

// Reset forgets a PID's history (process exited or migrated away).
func (s *Seqs) Reset(pid proc.PID) {
	delete(s.seq, pid)
	delete(s.parent, pid)
}

// Rebase forgets only a PID's parent link, keeping the sequence counter
// monotonic: the next capture becomes a full image under a fresh object
// name. Resetting the counter instead would republish over names an
// earlier chain generation already used — fatal once GC retires those
// names while a later generation is reoccupying them.
func (s *Seqs) Rebase(pid proc.PID) {
	delete(s.parent, pid)
}

// StorageEnvFor builds a storage env that bills CPU to the kernel clock
// and spends I/O time with nested execution in process context (other
// processes keep running during disk/network waits).
func StorageEnvFor(ctx *kernel.Context) *storage.Env {
	return &storage.Env{
		Bill: ctx.K,
		Wait: func(d simtime.Duration, what string) { ctx.IO(d, what) },
	}
}

// KernelEnv bills CPU to the kernel clock and spends I/O by advancing the
// whole machine (used by kernel threads, which are themselves scheduled).
func KernelEnv(k *kernel.Kernel, self *proc.Process) *storage.Env {
	return &storage.Env{
		Bill: k,
		Wait: func(d simtime.Duration, what string) { k.RunWhile(d, self) },
	}
}
