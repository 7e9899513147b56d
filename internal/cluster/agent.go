// The node-local checkpoint agent: the supervisor does not drive
// checkpoints synchronously from its control loop (that would require
// knowing the node is alive — an oracle). Instead each job incarnation,
// in both supervisor modes, gets a small daemon on its own node that
// checkpoints the process every interval to the remote server (or the
// node's disk, with UseLocalDisk), holding the fencing epoch it was
// started under. The agent is node-local code: it runs only while
// its machine does, and it keeps running after a false suspicion — which
// is exactly how a split brain forms, and exactly what the fenced target
// defuses.
//
// With Supervisor.Incremental set the agent ships delta chains instead
// of full images: it arms one dirty-page tracker per incarnation, sends
// only the ranges written since the previous checkpoint (chained onto
// it), and every RebaseEvery-th round publishes a fresh full image that
// bounds the chain — at which point everything the new full supersedes
// is garbage-collected through the same fenced target the publishes go
// through.
//
// A round is one capture, published at once or, with Supervisor.Pipeline,
// queued for shipping (pipeline.go). Each image that reaches the server
// goes through landed: an ack for the live incarnation, or a stale
// double commit.

package cluster

import (
	"errors"

	"repro/internal/checkpoint"
	"repro/internal/mechanism"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// ckptAgent checkpoints one job incarnation from its own node.
type ckptAgent struct {
	s       *Supervisor
	node    int
	pid     proc.PID
	epoch   uint64 // fencing epoch this incarnation was admitted at
	nextAt  simtime.Time
	stopped bool

	// chain is the incarnation's delta chain: it arms the dirty tracker
	// on the first incremental capture, keeps a failed round's collected
	// ranges from vanishing, and decides the rebase cadence. A pipelined
	// ship failure forces a rebase on it (see pipeline.go).
	chain *checkpoint.DeltaChain

	// Pipelined-shipping state (Supervisor.Pipeline non-nil): the
	// bounded FIFO of encoded images on their way to the server.
	ship []*shipUnit
}

// armAgent starts a checkpoint agent for the incarnation of the job
// running as pid on node, admitted at the given fencing epoch.
func (s *Supervisor) armAgent(node int, pid proc.PID, epoch uint64) {
	// Replicated full-image mode rebases every capture.
	every := 1
	if s.Incremental {
		every = s.RebaseEvery
	}
	s.agents = append(s.agents, &ckptAgent{
		s: s, node: node, pid: pid, epoch: epoch,
		nextAt: s.C.Now().Add(s.Policy.Interval()),
		chain:  checkpoint.NewDeltaChain(every),
	})
}

// pumpAgents runs every agent once and compacts stopped agents out of
// the slice; admit registers it as a cluster step hook, once per
// supervisor. Without the compaction a long run leaks one dead agent per
// incarnation and scans them all forever.
func (s *Supervisor) pumpAgents() {
	s.pumpLazy()
	live := s.agents[:0]
	for _, a := range s.agents {
		a.pump()
		if a.stopped {
			continue
		}
		live = append(live, a)
	}
	for i := len(live); i < len(s.agents); i++ {
		s.agents[i] = nil // release for GC
	}
	s.agents = live
	s.maybeRepair()
}

// stop retires the agent and releases its tracker (restoring the
// process's page protections). In-flight ship units die with the agent —
// they belong to an incarnation that no longer needs protecting.
func (a *ckptAgent) stop() {
	a.stopped = true
	a.chain.Close()
	a.dropShip()
}

// selfFence ends a superseded incarnation: the server said another
// incarnation owns the job now, so kill the local (stale) process and
// retire the agent — the split brain ends here, with zero double
// commits.
func (a *ckptAgent) selfFence(n *Node, p *proc.Process) {
	a.s.Counters().Inc("fence.suicides", 1)
	a.s.emit(EvSelfFence, a.node, a.epoch, "")
	if p != nil {
		if p.State != proc.StateZombie {
			n.K.Exit(p, 137)
		}
		n.K.Procs.Remove(p.PID)
	}
	a.stop()
}

// pump is one scheduling quantum of the agent's life.
func (a *ckptAgent) pump() {
	if a.stopped {
		return
	}
	c := a.s.C
	// Node-local code executes only on a live machine. This is fidelity,
	// not an oracle: a dead node's daemon is simply not running.
	if !c.NodeAlive(a.node) {
		return
	}
	n := c.Node(a.node)
	if a.s.Pipeline != nil {
		// Transfers progress on every pump, not just capture rounds —
		// that is the overlap the pipeline exists for.
		a.advanceShip(n)
		if a.stopped {
			return // the publish hit the fence: this incarnation is over
		}
	}
	now := c.Now()
	if now < a.nextAt {
		return
	}
	// Consult the interval policy afresh each pump: adaptive intervals
	// shorten as the MTBF estimate drops, which an arm-time snapshot
	// would never see.
	a.nextAt = now.Add(a.s.Policy.Interval())
	p, err := n.K.Procs.Lookup(a.pid)
	if err != nil {
		a.stop() // rebooted under us: the process is gone
		return
	}
	if p.State == proc.StateZombie {
		a.stop() // finished (or killed); nothing left to protect
		return
	}
	if a.s.lazy != nil && a.s.lazy.epoch == a.epoch {
		// This incarnation was lazy-restored and is still draining. A
		// capture sees only resident pages — and the tracker's arm-time
		// "everything resident" baseline has the same blind spot — so a
		// checkpoint taken now would silently omit every still-pending
		// page. Settle the session first; the capture below then sees the
		// complete memory image, byte-identical to an eager restore's.
		a.s.settleLazy()
	}
	m, err := a.s.mechs.For(a.node)
	if err != nil {
		a.s.Counters().Inc("agent.mech_failed", 1)
		return
	}
	// The round's target: without a pipeline the capture itself
	// publishes, and a failed write returns before the mechanism commits
	// its sequence, so the next round retries on the last durable parent.
	// With a pipeline the image stays in memory for the ship queue.
	var tgt storage.Target
	local := false
	if pc := a.s.Pipeline; pc == nil {
		tgt, local = a.s.shipTarget(a, false)
	} else {
		if len(a.ship) >= pc.maxInFlight() {
			// Backpressure: the wire is behind. Skip the round rather than
			// buffer without bound; the dirty tracker keeps accumulating,
			// so the next delta ships a superset and nothing is lost.
			a.s.Counters().Inc("pipe.stalls", 1)
			return
		}
		if cp, ok := m.(mechanism.CaptureParallelizer); ok {
			cp.SetCaptureParallelism(pc.captureWorkers())
		}
	}
	tk, err := a.capture(m, n, p, tgt)
	if err != nil && !errors.Is(err, storage.ErrFenced) {
		a.s.Counters().Inc("agent.ckpt_failed", 1)
		if !a.s.LocalFallback || local {
			return // transient storage trouble: try again next interval
		}
		// Degraded protection beats none: write the round's image to the
		// node's own disk once, where it dies with the node.
		tgt, local = a.s.shipTarget(a, true)
		if tk, err = a.capture(m, n, p, tgt); err == nil {
			a.s.Counters().Inc("ckpt.fellback", 1)
		}
	}
	if errors.Is(err, storage.ErrFenced) {
		// The server told us another incarnation owns the job now.
		a.selfFence(n, p)
		return
	}
	if err != nil {
		return
	}
	// The collected ranges are in the image now; no retry needs them.
	a.chain.Commit(tk.Img)
	full := tk.Img.Mode != checkpoint.ModeIncremental
	if tgt == nil {
		a.enqueueShip(n, tk, full)
		return
	}
	a.landed(tgt, local, tk.Img.ObjectName(), full, tk.Stats.EncodedBytes, tk.Total())
}

// landed records one image this agent's publish put on tgt (the node's
// disk when local): an ack for the live incarnation, or a double commit
// for a stale one.
func (a *ckptAgent) landed(tgt storage.Target, local bool, obj string, full bool, encodedBytes int, ckptDur simtime.Duration) {
	if a.epoch == a.s.fence.Epoch() {
		a.s.noteAck(a, obj, full, encodedBytes, local, ckptDur, tgt)
		return
	}
	// A stale writer slipped a commit past the (disabled) fence: this is
	// a split-brain double commit, and it may have replaced the live
	// incarnation's image under the same object name.
	a.s.Counters().Inc("fence.double_commits", 1)
	a.s.emit(EvStaleCommit, a.node, a.epoch, obj)
}

// capture takes one checkpoint: a full image through the mechanism's
// plain path, or — with incremental shipping on and a capable mechanism
// — the next capture on the incarnation's delta chain: a tracker-driven
// delta chained onto the previous capture, or a fresh full image every
// RebaseEvery rounds. The incarnation's first capture is always a
// rebase: chains never span incarnations (the previous incarnation's
// chain stays untouched until this full image supersedes it).
func (a *ckptAgent) capture(m mechanism.Mechanism, n *Node, p *proc.Process, tgt storage.Target) (*mechanism.Ticket, error) {
	dr, ok := m.(mechanism.DeltaRequester)
	if a.s.Incremental && !ok {
		a.s.Counters().Inc("agent.full_fallback", 1)
	}
	if !ok || !a.s.Incremental && a.s.Replication == nil {
		return mechanism.Checkpoint(m, n.K, p, tgt, nil)
	}
	// Replicated full-image mode arms no tracker, so its chain (rebasing
	// every round) yields standalone full images under epoch-qualified
	// names: the server path just renamed a re-incarnated seq over its
	// predecessor, but replicas of the superseded write linger on old
	// placement disks, and an erasure read that mixes shards of two
	// same-named encodings is undecodable.
	if a.s.Incremental {
		// One tracker per incarnation, armed node-locally. Under a
		// live-content policy the liveness tracker replaces the plain
		// dirty tracker: it additionally watches reads and withholds
		// dead pages (overwritten before ever being read) from the
		// deltas it reports.
		err := a.chain.Arm(func() checkpoint.Tracker {
			if a.s.Policy.Spec().Liveness() {
				return checkpoint.NewKernelLivenessTracker(n.K, p)
			}
			return checkpoint.NewKernelWPTracker(n.K, p)
		})
		if err != nil {
			a.s.Counters().Inc("agent.trk_failed", 1)
		}
	}
	trk, rebase := a.chain.Next()
	t, err := dr.RequestDelta(n.K, p, tgt, nil, trk, a.epoch, rebase)
	if err != nil {
		return nil, err
	}
	if err := mechanism.WaitTicket(n.K, t, 5*simtime.Minute); err != nil {
		return t, err
	}
	return t, nil
}

// noteAck is the one ack step: obj, a full image or a delta of
// encodedBytes that agent a took in ckptDur, is durable on tgt (on a's
// node disk when local). It is counted, becomes the recovery pointer,
// feeds the interval policy, is logged as EvAck and joins the chain
// bookkeeping; when a rebase made the prior history unreachable, that
// history is garbage-collected. It takes the image by value: a pipelined
// image acks long after its ticket completed.
func (s *Supervisor) noteAck(a *ckptAgent, obj string, full bool,
	encodedBytes int, local bool, ckptDur simtime.Duration, tgt storage.Target) {
	var retire []string
	if full {
		// A full image supersedes the job's entire prior history: the
		// previous chain and any fenced-off incarnation's leftovers are
		// unreachable from the recovery pointer from here on — and only
		// from here on, which is why GC waits for exactly this ack.
		retire = append(s.pendingRetire, s.chainObjs...)
		s.pendingRetire = nil
		s.chainObjs = nil
		s.chainSizes = nil
		s.lastFull = obj
	}
	s.chainObjs = append(s.chainObjs, obj)
	if s.chainSizes == nil {
		s.chainSizes = make(map[string]int)
	}
	s.chainSizes[obj] = encodedBytes
	s.Counters().Inc("ckpt.bytes_shipped", int64(encodedBytes))
	if full {
		s.Counters().Inc("ckpt.full_acks", 1)
	} else {
		s.Counters().Inc("ckpt.delta_acks", 1)
	}
	s.Checkpoints++
	s.lastLeaf = obj
	s.lastNode = a.node
	s.lastLocal = local
	s.Policy.ObserveCaptureCost(ckptDur)
	s.lastProgressAt = s.C.Now()
	s.emit(EvAck, a.node, a.epoch, obj)
	if s.Incremental && len(retire) > 0 {
		// GC is about to unlink superseded objects a draining lazy
		// session may still need for its deferred plan read: settle it
		// first (no-op when no session is live).
		s.settleLazy()
		s.retire(a, tgt, retire, obj)
	}
	if s.Incremental && !full {
		s.maybeCompact(a, tgt)
	}
}

// retire garbage-collects superseded checkpoint objects through the
// agent's fenced target: GC is a chain-head mutation, so a stale
// incarnation's deletes bounce off the fence exactly like its publishes
// would — a zombie can never unlink images the live chain still needs.
func (s *Supervisor) retire(a *ckptAgent, tgt storage.Target, objs []string, keep string) {
	var list []string
	for _, o := range objs {
		if o == keep || o == s.lastLeaf || o == s.lastFull {
			continue // never GC anything a recovery pointer reaches
		}
		list = append(list, o)
	}
	deleted, pending, err := storage.RetireChain(tgt, list)
	s.retired(a, deleted, pending, err)
}

// retired logs what a GC sweep (retire's, or the one after a fold)
// deleted and files what it could not delete.
func (s *Supervisor) retired(a *ckptAgent, deleted, pending []string, err error) {
	for _, o := range deleted {
		s.Counters().Inc("ckpt.retired", 1)
		s.emit(EvRetire, a.node, a.epoch, o)
	}
	if err == nil {
		return
	}
	if errors.Is(err, storage.ErrFenced) {
		// Superseded mid-sweep: the live incarnation owns the garbage
		// list now; touching it further would race its chain.
		s.Counters().Inc("fence.gc_rejected", 1)
		return
	}
	// Transient storage trouble: keep the tail queued for the sweep
	// after the next full ack.
	s.Counters().Inc("ckpt.gc_deferred", 1)
	s.pendingRetire = append(s.pendingRetire, pending...)
}
