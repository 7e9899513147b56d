// Package mpi provides the message-passing substrate and the coordinated
// checkpointing protocol of the LAM/MPI framework [32] and CoCheck [28]:
// a parallel job's ranks exchange halo messages across the simulated
// cluster; a checkpoint request picks a coordination point (an iteration
// boundary beyond every rank's current progress), all ranks drain their
// in-flight traffic and quiesce there, each rank is captured through a
// per-node kernel mechanism, and the whole job can be restarted — on the
// same or different nodes — bit-exactly.
//
// The paper's observation that LAM/MPI is "completely transparent to the
// application [but] not transparent to the MPI library" is structural
// here too: the application kernel (HaloRing's compute) knows nothing of
// checkpointing; the coordination lives in the Job (the MPI library).
package mpi

import (
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/mechanism"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// envelope is one rank-to-rank message.
type envelope struct {
	From, To int
	Iter     uint64
	Data     []byte
}

// rankState is the job's bookkeeping for one rank.
type rankState struct {
	node      int
	pid       proc.PID
	mailbox   []envelope
	waiting   bool // blocked in recv
	atBarrier bool
}

// Job is one parallel application: N ranks placed on cluster nodes.
type Job struct {
	C      *cluster.Cluster
	NRanks int
	// MkMech builds the per-node checkpoint mechanism (default LAM/MPI
	// semantics: one BLCR-class mechanism per node, coordinated here).
	MkMech func() mechanism.Mechanism

	ranks []*rankState
	mechs *cluster.MechPool

	// Coordination state.
	ckptAtIter  uint64 // 0 = no checkpoint requested
	arrived     int
	ckptDone    func([]*checkpoint.Image)
	ckptTgt     storage.Target
	requestedAt simtime.Time
	drainedAt   simtime.Time

	// Stats.
	MessagesSent  int
	BytesSent     int
	Checkpoints   int
	LastDrainTime simtime.Duration
}

// NewJob creates a job shell; Launch places and starts the ranks.
func NewJob(c *cluster.Cluster, nRanks int, mk func() mechanism.Mechanism) *Job {
	j := &Job{C: c, NRanks: nRanks, MkMech: mk}
	// The pool reads MkMech per install, so a factory set after NewJob
	// still takes effect.
	j.mechs = cluster.NewMechPool(c, func() mechanism.Mechanism { return j.MkMech() })
	return j
}

// Launch registers the rank programs (one per rank, parameterized by the
// template) and spawns them round-robin across the cluster's nodes. The
// template's Rank and Job fields are filled in per rank.
func (j *Job) Launch(template HaloRing) error {
	if j.ranks != nil {
		return errors.New("mpi: job already launched")
	}
	nNodes := len(j.C.Nodes())
	for r := 0; r < j.NRanks; r++ {
		prog := template
		prog.Job = j
		prog.Rank = r
		if err := j.C.Registry.Register(prog); err != nil {
			return err
		}
		node := r % nNodes
		j.ranks = append(j.ranks, &rankState{node: node})
	}
	for r := 0; r < j.NRanks; r++ {
		node := j.ranks[r].node
		name := (HaloRing{Job: j, Rank: r, MiB: template.MiB}).Name()
		p, err := j.C.Node(node).K.Spawn(name)
		if err != nil {
			return err
		}
		if m, err := j.mech(node); err == nil {
			if err := m.Setup(j.C.Node(node).K, p); err != nil {
				return err
			}
		}
		j.ranks[r].pid = p.PID
	}
	for i := range j.C.Nodes() {
		i := i
		j.C.OnDeliver(i, func(payload any) { j.deliver(payload) })
	}
	return nil
}

func (j *Job) mech(node int) (mechanism.Mechanism, error) {
	if j.MkMech == nil {
		return nil, errors.New("mpi: no mechanism factory")
	}
	return j.mechs.For(node)
}

// proc returns the live process of rank r.
func (j *Job) proc(r int) (*proc.Process, error) {
	rs := j.ranks[r]
	return j.C.Node(rs.node).K.Procs.Lookup(rs.pid)
}

// send transmits an envelope; same-node delivery is immediate.
func (j *Job) send(ctx *kernel.Context, env envelope) {
	from := j.ranks[env.From]
	to := j.ranks[env.To]
	j.MessagesSent++
	j.BytesSent += len(env.Data)
	// MPI library send path: syscall + copy.
	ctx.K.Charge(ctx.K.CM.Syscall()+ctx.K.CM.MemCopy(len(env.Data)), "mpi-send")
	if from.node == to.node {
		j.deliver(env)
		return
	}
	_ = j.C.Send(from.node, to.node, env, len(env.Data))
}

// deliver routes an arrived envelope into its rank's mailbox and wakes a
// blocked receiver.
func (j *Job) deliver(payload any) {
	env, ok := payload.(envelope)
	if !ok {
		return
	}
	rs := j.ranks[env.To]
	rs.mailbox = append(rs.mailbox, env)
	if rs.waiting {
		rs.waiting = false
		if p, err := j.proc(env.To); err == nil {
			j.C.Node(rs.node).K.Wake(p)
		}
	}
}

// tryRecvFrom removes the message for rank r matching (iter, from), or
// reports nothing available. Matching the sender as well as the iteration
// makes receives immune to duplicate or reordered traffic.
func (j *Job) tryRecvFrom(r, from int, iter uint64) (envelope, bool) {
	rs := j.ranks[r]
	for i, env := range rs.mailbox {
		if env.Iter == iter && env.From == from {
			rs.mailbox = append(rs.mailbox[:i], rs.mailbox[i+1:]...)
			return env, true
		}
	}
	return envelope{}, false
}

// RequestCheckpoint starts a coordinated checkpoint to tgt: the
// coordination point is two iterations past the furthest rank, which
// every rank can still reach (the lock-step exchange bounds skew), so the
// protocol is deadlock-free and the network is provably drained when the
// last rank arrives. done (optional) receives the images.
func (j *Job) RequestCheckpoint(tgt storage.Target, done func([]*checkpoint.Image)) error {
	if j.ckptAtIter != 0 {
		return errors.New("mpi: checkpoint already in progress")
	}
	var maxIter uint64
	for r := range j.ranks {
		p, err := j.proc(r)
		if err != nil {
			return err
		}
		if p.Regs().PC > maxIter {
			maxIter = p.Regs().PC
		}
	}
	j.ckptAtIter = maxIter + 2
	j.arrived = 0
	j.ckptTgt = tgt
	j.ckptDone = done
	j.requestedAt = j.C.Now()
	return nil
}

// CheckpointInProgress reports whether coordination is under way.
func (j *Job) CheckpointInProgress() bool { return j.ckptAtIter != 0 }

// shouldPause reports whether rank r must stop at the coordination point.
func (j *Job) shouldPause(iter uint64) bool {
	return j.ckptAtIter != 0 && iter >= j.ckptAtIter
}

// enterBarrier marks rank r arrived; the last arrival performs the
// captures and releases everyone.
func (j *Job) enterBarrier(ctx *kernel.Context, r int) {
	rs := j.ranks[r]
	if rs.atBarrier {
		return
	}
	rs.atBarrier = true
	j.arrived++
	p := ctx.P
	p.WaitReason = "mpi checkpoint barrier"
	p.State = proc.StateBlocked
	ctx.K.Sched.Dequeue(p)
	if j.arrived == j.NRanks {
		j.drainedAt = j.C.Now()
		j.LastDrainTime = j.drainedAt.Sub(j.requestedAt)
		j.captureAll()
	}
}

// captureAll checkpoints every (quiescent) rank and releases the barrier.
func (j *Job) captureAll() {
	var imgs []*checkpoint.Image
	ok := true
	for r := range j.ranks {
		rs := j.ranks[r]
		if len(rs.mailbox) != 0 {
			// Cannot happen when the coordination invariant holds; guard
			// anyway rather than persist an inconsistent global state.
			ok = false
			break
		}
		m, err := j.mech(rs.node)
		if err != nil {
			ok = false
			break
		}
		p, err := j.proc(r)
		if err != nil {
			ok = false
			break
		}
		tk, err := mechanism.Checkpoint(m, j.C.Node(rs.node).K, p, j.ckptTgt, nil)
		if err != nil {
			ok = false
			break
		}
		imgs = append(imgs, tk.Img)
	}
	if ok {
		j.Checkpoints++
	}
	// Release the barrier.
	j.ckptAtIter = 0
	for r := range j.ranks {
		rs := j.ranks[r]
		rs.atBarrier = false
		if p, err := j.proc(r); err == nil {
			j.C.Node(rs.node).K.Wake(p)
		}
	}
	if j.ckptDone != nil && ok {
		j.ckptDone(imgs)
	}
	j.ckptDone = nil
}

// WaitCheckpoint drives the cluster until the in-progress checkpoint
// finishes.
func (j *Job) WaitCheckpoint(budget simtime.Duration) error {
	if !j.C.RunUntil(func() bool { return j.ckptAtIter == 0 }, budget) {
		return fmt.Errorf("mpi: coordinated checkpoint did not finish within %v", budget)
	}
	return nil
}

// Restart rebuilds the whole job from per-rank images on the given node
// assignment (nil = keep each rank's recorded node). Any surviving
// original rank processes are killed first; mailboxes reset (the images
// were taken at a drained barrier, so empty is exact).
func (j *Job) Restart(imgs []*checkpoint.Image, nodes []int) error {
	if len(imgs) != j.NRanks {
		return fmt.Errorf("mpi: %d images for %d ranks", len(imgs), j.NRanks)
	}
	for r := range j.ranks {
		rs := j.ranks[r]
		if p, err := j.proc(r); err == nil {
			j.C.Node(rs.node).K.Exit(p, 0)
			j.C.Node(rs.node).K.Procs.Remove(p.PID)
		}
		rs.mailbox = nil
		rs.waiting = false
		rs.atBarrier = false
	}
	// Tear down the network: packets from the dead execution must never
	// reach the restored one (they would duplicate replayed messages).
	j.C.DropMail(func(payload any) bool {
		_, ok := payload.(envelope)
		return ok
	})
	for r := range j.ranks {
		node := j.ranks[r].node
		if nodes != nil {
			node = nodes[r]
		}
		if !j.C.Node(node).Alive() {
			return fmt.Errorf("mpi: restart target node%d is down", node)
		}
		m, err := j.mech(node)
		if err != nil {
			return err
		}
		p, err := m.Restart(j.C.Node(node).K, []*checkpoint.Image{imgs[r]}, true)
		if err != nil {
			return fmt.Errorf("mpi: restart rank %d: %w", r, err)
		}
		// The modified MPI library re-runs the mechanism's init phase on
		// restart, exactly as it did at MPI_Init.
		if err := m.Setup(j.C.Node(node).K, p); err != nil {
			return err
		}
		j.ranks[r].node = node
		j.ranks[r].pid = p.PID
	}
	return nil
}

// Fingerprints returns each rank's result checksum.
func (j *Job) Fingerprints() ([]uint64, error) {
	out := make([]uint64, j.NRanks)
	for r := range j.ranks {
		p, err := j.proc(r)
		if err != nil {
			return nil, err
		}
		out[r] = p.Regs().G[3]
	}
	return out, nil
}

// Done reports whether every rank has exited cleanly.
func (j *Job) Done() bool {
	for r := range j.ranks {
		p, err := j.proc(r)
		if err != nil || p.State != proc.StateZombie {
			return false
		}
	}
	return true
}

// RunUntilDone drives the cluster until the job completes.
func (j *Job) RunUntilDone(budget simtime.Duration) bool {
	return j.C.RunUntil(j.Done, budget)
}
