package cluster

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/costmodel"
	"repro/internal/mechanism"
	"repro/internal/policy"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/trace"
)

// FailureDetector is the suspicion service a supervisor's failover
// verdicts come from. It is implemented by detector.Monitor, which
// judges heartbeats over the faulty network, and by groundTruth, the
// oracle mode's reader of the simulator's fail-stop state. The interface
// lives here so cluster does not import detector (which imports nothing
// of cluster either — both meet at this seam and at detector.Transport).
type FailureDetector interface {
	// Suspected reports whether node is currently suspected dead.
	Suspected(node int) bool
	// PickHealthy returns an unsuspected node other than except (and
	// other than the detector's own observer node), or -1.
	PickHealthy(except int) int
	// Failover records that the caller acted on a suspicion of node.
	Failover(node int)
}

// groundTruth is the oracle mode's failure detector: it reads the
// simulator's fail-stop state, as no real supervisor could, and counts
// every read in the supervisor's OracleReads.
type groundTruth struct{ s *Supervisor }

func (g groundTruth) Suspected(node int) bool {
	g.s.OracleReads++
	return !g.s.C.Node(node).Alive()
}

func (g groundTruth) PickHealthy(except int) int {
	g.s.OracleReads++ // FindSpare scans ground-truth liveness
	return g.s.C.FindSpare(except)
}

// Failover has nothing to record: ground truth is never wrong.
func (groundTruth) Failover(int) {}

// MechPool caches one mechanism instance per node (mechanisms bind to a
// single kernel, so cross-node operations need one instance per machine).
type MechPool struct {
	C      *Cluster
	Mk     func() mechanism.Mechanism
	byNode map[int]nodeMech
}

// nodeMech remembers which kernel a cached mechanism was installed on: a
// reboot replaces the node's kernel, and a mechanism bound to the dead
// kernel fails every request from then on.
type nodeMech struct {
	k *kernel.Kernel
	m mechanism.Mechanism
}

// NewMechPool wraps a mechanism factory for use across c's nodes.
func NewMechPool(c *Cluster, mk func() mechanism.Mechanism) *MechPool {
	return &MechPool{C: c, Mk: mk, byNode: make(map[int]nodeMech)}
}

// For returns the node's mechanism, installing a fresh one on first use
// and again whenever the node has rebooted since.
func (mp *MechPool) For(node int) (mechanism.Mechanism, error) {
	k := mp.C.Node(node).K
	if nm, ok := mp.byNode[node]; ok && nm.k == k {
		return nm.m, nil
	}
	m := mp.Mk()
	if err := m.Install(k); err != nil {
		return nil, err
	}
	mp.byNode[node] = nodeMech{k, m}
	return m, nil
}

// Migrate moves a process between nodes with the pool's mechanism (the
// CRAK/ZAP/BProc use case): checkpoint on the source, ship the image,
// kill the original, restart on the destination.
func Migrate(c *Cluster, pool *MechPool, from, to int, pid proc.PID) (*proc.Process, error) {
	src, dst := c.Node(from), c.Node(to)
	if !src.Alive() || !dst.Alive() {
		return nil, errors.New("cluster: migration endpoints must be alive")
	}
	p, err := src.K.Procs.Lookup(pid)
	if err != nil {
		return nil, err
	}
	ms, err := pool.For(from)
	if err != nil {
		return nil, err
	}
	tk, err := mechanism.Checkpoint(ms, src.K, p, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: migrate capture: %w", err)
	}
	// Ship the image across the interconnect.
	data, err := tk.Img.EncodeBytes()
	if err != nil {
		return nil, err
	}
	c.RunFor(c.CM.NetTransfer(len(data)))

	// Restart on the destination first and only then kill the source:
	// if the restart fails the original keeps running (it has merely
	// rolled on past the captured state). The pre-fix order exited the
	// source before attempting the restart, so a restart failure lost
	// the process entirely.
	md, err := pool.For(to)
	if err != nil {
		return nil, err
	}
	p2, err := md.Restart(dst.K, []*checkpoint.Image{tk.Img}, true)
	if err != nil {
		return nil, fmt.Errorf("cluster: migrate restart (source %s/%d kept running): %w", src.Name, pid, err)
	}
	// No simulated time passes between the restart and the kill, so the
	// two copies never run concurrently.
	if p.State != proc.StateZombie {
		src.K.Exit(p, 0)
	}
	src.K.Procs.Remove(p.PID)
	return p2, nil
}

// GangMember is one process of a gang-scheduled parallel job.
type GangMember struct {
	Node int
	PID  proc.PID
}

// Gang is a coscheduled set of processes that can be preempted safely via
// checkpoint/restart — the "safe pre-emption by another process" and
// "temporary suspension of a long-running application for planned system
// outage or maintenance" uses of §1.
type Gang struct {
	C       *Cluster
	Members []GangMember

	mechs  *MechPool
	images map[int]*checkpoint.Image // keyed by member index
	frozen bool
}

// NewGang wraps a member set for safe preemption.
func NewGang(c *Cluster, mk func() mechanism.Mechanism, members []GangMember) *Gang {
	return &Gang{
		C: c, Members: members,
		mechs:  NewMechPool(c, mk),
		images: make(map[int]*checkpoint.Image),
	}
}

// Preempt checkpoints every member and kills it, freeing the nodes for
// another job. Checkpoints go to each node's local disk via the
// mechanism's native path.
//
// Preemption is two-phase: every member is captured first and nothing is
// killed until all images are in hand. A capture failure therefore leaves
// the whole gang running and the Gang unfrozen — the caller can retry.
// (The pre-fix single loop killed members as it went, so a mid-loop error
// left the gang half-dead with frozen still false: earlier members were
// gone but could not be resumed.)
func (g *Gang) Preempt() error {
	if g.frozen {
		return errors.New("cluster: gang already preempted")
	}
	type captured struct {
		img *checkpoint.Image
		n   *Node
		p   *proc.Process
	}
	caps := make([]captured, len(g.Members))
	for i, mb := range g.Members {
		n := g.C.Node(mb.Node)
		m, err := g.mechs.For(mb.Node)
		if err != nil {
			return err
		}
		p, err := n.K.Procs.Lookup(mb.PID)
		if err != nil {
			return err
		}
		tk, err := mechanism.Checkpoint(m, n.K, p, nil, nil)
		if err != nil {
			return fmt.Errorf("cluster: gang preempt member %d (gang left running): %w", i, err)
		}
		caps[i] = captured{tk.Img, n, p}
	}
	for i, c := range caps {
		g.images[i] = c.img
		c.n.K.Exit(c.p, 0)
		c.n.K.Procs.Remove(c.p.PID)
	}
	g.frozen = true
	return nil
}

// Resume restarts every member on its node, returning the new processes
// in Members order (PIDs are per-node and may repeat across nodes).
// Like Migrate, it refuses while any member's node is down, and it checks
// every node before restarting any member: a refused Resume leaves the
// gang frozen with its images, to resume once the node is back.
func (g *Gang) Resume() ([]*proc.Process, error) {
	if !g.frozen {
		return nil, errors.New("cluster: gang not preempted")
	}
	for i, mb := range g.Members {
		if n := g.C.Node(mb.Node); !n.Alive() {
			return nil, fmt.Errorf("cluster: gang resume member %d: node %s is down (gang left frozen)", i, n.Name)
		}
	}
	out := make([]*proc.Process, 0, len(g.Members))
	for i, mb := range g.Members {
		img := g.images[i]
		if img == nil {
			return nil, fmt.Errorf("cluster: no image for member %d", i)
		}
		m, err := g.mechs.For(mb.Node)
		if err != nil {
			return nil, err
		}
		p, err := m.Restart(g.C.Node(mb.Node).K, []*checkpoint.Image{img}, true)
		if err != nil {
			return nil, fmt.Errorf("cluster: gang resume member %d: %w", i, err)
		}
		out = append(out, p)
	}
	g.frozen = false
	g.images = make(map[int]*checkpoint.Image)
	return out, nil
}

// Supervisor runs one application to completion on a detailed cluster
// under fail-stop failures: it checkpoints periodically through a real
// mechanism to the checkpoint server (or local disk) and restarts the job
// on a spare node after failures — the whole §1 story end to end.
// Construct it with NewSupervisor. One lifecycle (Run), one failover and
// one checkpoint path (the node-local agent, agent.go) serve both modes;
// they differ only in where the failure verdicts come from (a Detector,
// or ground truth), in the first node admit picks, in the round gap and
// in how the status read reaches the node.
type Supervisor struct {
	// SupervisorConfig is the validated configuration with every default
	// resolved by NewSupervisor. Its fields are the supervisor's own:
	// sup.Incremental, sup.OnEvent and the rest read and write
	// through it.
	SupervisorConfig
	// Policy is the job's checkpoint policy engine, built from
	// SupervisorConfig.Policy: it owns the cadence (fixed, or recomputed
	// from measured capture cost and the online MTBF estimate) and the
	// delta content policy. It deliberately shadows the config's
	// policy.Spec field of the same name — callers read the engine as
	// sup.Policy and the spec it runs as sup.Policy.Spec(). Run refuses to
	// start without it.
	Policy *policy.Engine
	// Metrics layers latency histograms over Counters(). NewSupervisor
	// builds it and hands it to the policy engine and the replication
	// targets, so it is read-only: reassigning it would split the
	// supervisor's histograms from theirs.
	Metrics *trace.Metrics
	// OracleReads counts decision-path reads of simulator ground truth:
	// groundTruth's liveness reads and the oracle's process-table
	// reads. Autonomic mode performs none: its tests assert this stays
	// zero.
	OracleReads int

	// Events is the orchestration event log (see events.go).
	Events []Event

	// det is the failure detector the run's verdicts come from: Detector,
	// or groundTruth when that is nil.
	det FailureDetector
	// pumping is set once pumpAgents is registered as a cluster step
	// hook, so a relaunched Run does not register it again.
	pumping bool

	// fence is the job's epoch domain, one per supervisor. Each
	// incarnation publishes through a target fenced at its admission
	// epoch; Advance-before-restart makes a stale incarnation's commits
	// rejectable no matter how wrong the suspicion was.
	fence *storage.FenceDomain

	// restoreWorkers shards chain replay on every restart through
	// mechanism.RestoreParallelizer: the pipeline's capture width, or
	// sequential without a pipeline. Restored memory is byte-identical
	// at any width. The mechanism pool reads it as it makes each
	// mechanism, so a change after the first one is made is ignored.
	restoreWorkers int

	mechs     *MechPool
	node      int
	pid       proc.PID
	lastLeaf  string
	lastNode  int
	lastLocal bool // last good image is on lastNode's local disk
	// lastProgressAt is the last instant the job's durable state moved
	// forward (admission, ack, or restart) — the baseline the
	// policy.work_lost histogram measures each failure against.
	lastProgressAt simtime.Time
	agents         []*ckptAgent
	repl           *replState // live replica placement (replication.go)
	lazy           *lazyRun   // in-flight lazy restore session (lazy.go)

	// Chain bookkeeping (incremental shipping). lastFull is the newest
	// acked full image — the fallback anchor when the chain under
	// lastLeaf will not load. chainObjs lists the live chain's acked
	// objects oldest-first; pendingRetire holds superseded chains that
	// become deletable only once the next full ack makes them
	// unreachable from the recovery pointer.
	lastFull      string
	chainObjs     []string
	pendingRetire []string

	// chainSizes maps each live-chain object to its authoritative encoded
	// length (EncodedBytes at ack, BytesOut at fold). The repair sweep
	// uses it to tell a stale replica copy — right name, wrong version,
	// the residue of a quorum publish that missed a member — from a
	// healthy one: presence probes alone cannot see that divergence.
	chainSizes map[string]int

	// Results
	Completed   bool
	Fingerprint uint64
	Makespan    simtime.Duration
	Checkpoints int
	Restarts    int
	FromScratch int // restarts that lost all progress (local disk gone)
}

// Run drives the cluster until the job completes or the budget elapses.
// It admits the job; each round it then waits the round gap and fails
// the job over if the detector suspects its node. Otherwise a status
// read decides: the job is gone or killed (fail over), finished
// (complete), or running (its node-local agent checkpoints it).
func (s *Supervisor) Run(budget simtime.Duration) error {
	if s.Policy == nil {
		return errors.New("cluster: Supervisor needs a policy engine — construct with NewSupervisor")
	}
	start := s.C.Now()
	if err := s.admit(); err != nil {
		return err
	}
	deadline := start.Add(budget)
	lastObs := s.C.Now()
	for s.C.Now() < deadline {
		s.C.RunFor(s.roundGap())
		s.Policy.ObserveUptime(s.C.Now().Sub(lastObs))
		lastObs = s.C.Now()

		if s.det.Suspected(s.node) {
			// The node is judged dead. A heartbeat detector may be wrong —
			// we cannot tell, and we do not try: fence, then fail over.
			s.det.Failover(s.node)
			if err := s.failover(); err != nil {
				return err
			}
			continue
		}
		st, ok := s.status()
		switch {
		case !ok:
			// No reply. Crashed or merely unreachable? The probe cannot
			// say; arbitration belongs to the detector, next round.
		case !st.Found || st.State == proc.StateZombie && st.ExitCode != 0:
			// The node answered and the job is gone — it rebooted under
			// us faster than suspicion could accrue — or a failure nobody
			// observed directly killed it.
			if err := s.failover(); err != nil {
				return err
			}
		case st.State == proc.StateZombie:
			s.Completed = true
			s.Fingerprint = st.Fingerprint
			s.Makespan = s.C.Now().Sub(start)
			// A lazy restore may still be draining: settle it so the final
			// latency accounting lands and the run leaves no dangling
			// demand-fill hook behind.
			s.settleLazy()
			// The final checkpoints may have acked between repair sweeps:
			// flush redundancy so the chain the run leaves behind is fully
			// replicated, not merely quorum-replicated.
			s.flushRepair()
			s.emit(EvComplete, s.node, s.fence.Epoch(), fmt.Sprintf("%#x", s.Fingerprint))
			return nil
		}
	}
	s.Makespan = s.C.Now().Sub(start)
	return nil
}

// admit starts the job's first incarnation on node 0, or on node 1 when
// node 0 is an autonomic control node: the job never shares a machine
// with the control plane, and the oracle has none. It advances the fence
// before the start — a writer's epoch is fixed before it can produce
// bytes — and arms the incarnation's checkpoint agent.
func (s *Supervisor) admit() error {
	if !s.pumping {
		s.C.OnStep(s.pumpAgents)
		s.pumping = true
	}
	first := 0
	if s.Detector != nil && first == s.ControlNode {
		first = 1
	}
	epoch := s.fence.Advance()
	if err := s.start(first); err != nil {
		return err
	}
	s.armAgent(first, s.pid, epoch)
	s.emit(EvAdmit, first, epoch, "")
	return nil
}

// roundGap is the simulated time each round waits. The oracle waits the
// policy's live interval, so a shrinking MTBF estimate shortens the very
// next checkpoint gap. Autonomic mode polls at a quarter of the base
// cadence: its rhythm stays anchored to the configured base.
func (s *Supervisor) roundGap() simtime.Duration {
	if s.Detector == nil {
		return s.Policy.Interval()
	}
	if poll := s.Policy.Base() / 4; poll > 0 {
		return poll
	}
	return simtime.Millisecond
}

// status reads the job's process state. In autonomic mode it is a status
// RPC from the control node, unanswered (ok false) when the network
// swallows it. The oracle reads the node's own process table, over a
// loopback that always answers, and counts one OracleReads.
func (s *Supervisor) status() (ProcStatus, bool) {
	from := s.ControlNode
	if s.Detector == nil {
		s.OracleReads++
		from = s.node
	}
	return s.C.ProbeProcess(from, s.node, s.pid)
}

// noteFailure feeds one observed failure into the policy engine (moving
// the MTBF estimate and, under youngdaly, the live cadence) and records
// the work lost to it: the simulated time since the job's durable state
// last moved forward. This is the quantity the interval policy exists
// to bound, and the chaos work-lost invariant reads it back.
func (s *Supervisor) noteFailure() {
	s.Policy.ObserveFailure()
	lost := s.C.Now().Sub(s.lastProgressAt)
	if lost < 0 {
		lost = 0
	}
	s.Metrics.Hist("policy.work_lost").Observe(lost.Millis())
}

// Counters returns the cluster's shared counter set, which receives the
// supervisor's ckpt.*, restore.* and fence.* counters.
func (s *Supervisor) Counters() *trace.Counters { return s.C.Counters }

// LastLeaf returns the object name of the newest acknowledged
// checkpoint — the recovery pointer — or "" before the first ack.
func (s *Supervisor) LastLeaf() string { return s.lastLeaf }

// LiveAgents returns how many armed, unstopped checkpoint agents the
// supervisor holds (stopped agents are compacted out by pumpAgents).
func (s *Supervisor) LiveAgents() int { return len(s.agents) }

// prepareOn returns node's mechanism with the job's program, as the
// mechanism wraps it, registered on the node's kernel.
func (s *Supervisor) prepareOn(node int) (mechanism.Mechanism, kernel.Program, error) {
	m, err := s.mechs.For(node)
	if err != nil {
		return nil, nil, err
	}
	prepared := m.Prepare(s.Prog)
	reg := s.C.Node(node).K.Registry
	if _, err := reg.Lookup(prepared.Name()); err != nil {
		reg.MustRegister(prepared)
	}
	return m, prepared, nil
}

// start spawns a fresh incarnation of the job on node.
func (s *Supervisor) start(node int) error {
	s.node = node
	m, prepared, err := s.prepareOn(node)
	if err != nil {
		return err
	}
	n := s.C.Node(node)
	p, err := n.K.Spawn(prepared.Name())
	if err != nil {
		return err
	}
	if err := m.Setup(n.K, p); err != nil {
		return err
	}
	if s.Iterations > 0 {
		p.Regs().G[1] = s.Iterations
	}
	s.pid = p.PID
	s.lastProgressAt = s.C.Now()
	return nil
}

// restartOn is the one restart path: it restarts the job on node from
// the newest checkpoint src serves — restart-before-read when
// LazyRestore is set and its preconditions hold, else an eager restore
// of the whole chain, else from scratch when nothing is recoverable (the
// paper's warning about local-only storage). It logs EvRestore or
// EvScratch under epoch. manifest is the caller's snapshot of the
// chain's acked object names.
func (s *Supervisor) restartOn(node int, src storage.Target, manifest []string, epoch uint64) error {
	s.Restarts++
	var p *proc.Process
	if s.LazyRestore {
		var err error
		if p, err = s.recoverLazy(src, node, epoch, manifest); err != nil {
			return err
		}
		// A nil process means the lazy preconditions did not hold: fall
		// through to the eager path below.
		if p == nil {
			s.Counters().Inc("restore.lazy_declined", 1)
		}
	}
	if p == nil {
		chain, readWait := s.loadRecoveryChain(src, manifest)
		if chain == nil {
			s.FromScratch++
			s.lastLeaf = ""
			s.lastFull = ""
			s.emit(EvScratch, node, epoch, "")
			return s.start(node)
		}
		m, _, err := s.prepareOn(node)
		if err != nil {
			return err
		}
		s.emit(EvRestore, node, epoch, chain[len(chain)-1].ObjectName())
		if p, err = m.Restart(s.C.Node(node).K, chain, true); err != nil {
			return err
		}
		s.observeRestore(chain, p.ReplayBytes, readWait)
	}
	s.node = node
	s.pid = p.PID
	s.lastProgressAt = s.C.Now()
	return nil
}

// loadRecoveryChain fetches the newest restorable chain from src: the
// full ancestry of lastLeaf, or — when a mid-chain image is torn or
// lost — the chain of the last acked full image, the newest intact
// ancestor the supervisor still holds a name for. manifest is the
// caller's snapshot of the chain's acked object names (failover
// clears the live bookkeeping before loading, so it must snapshot
// first). Returns nil when nothing loads (scratch restart). readWait is
// the simulated storage wait recovery spent reading — accumulated
// across attempts, because a failed manifest read or broken walk is
// time the job actually waited before the load that finally worked.
func (s *Supervisor) loadRecoveryChain(src storage.Target, manifest []string) (chain []*checkpoint.Image, readWait simtime.Duration) {
	if s.lastLeaf == "" || src == nil || !src.Available() {
		return nil, 0
	}
	fenceEpoch := s.fence.Epoch()
	env := &storage.Env{Bill: costmodel.Discard{},
		Wait: func(d simtime.Duration, _ string) { readWait += d }}
	// Fast path: when the supervisor still holds the manifest for the
	// chain ending at the recovery pointer, fetch it in one batched pass
	// instead of a seek-per-link parent walk. Any mismatch between the
	// manifest and what the store serves fails verification and drops to
	// the walk below, which re-discovers ancestry from the images alone.
	if n := len(manifest); n > 0 && manifest[n-1] == s.lastLeaf {
		m := append([]string(nil), manifest...)
		chain, err := checkpoint.LoadChainManifest(src, env, m)
		if err == nil {
			s.Counters().Inc("restore.manifest_reads", 1)
			return chain, readWait
		}
	}
	chain, err := checkpoint.LoadChain(src, env, s.lastLeaf)
	if err == nil {
		return chain, readWait
	}
	switch {
	case errors.Is(err, checkpoint.ErrCorrupt):
		// A torn or silently truncated image reached restore — the
		// exact failure atomic commit exists to prevent.
		s.Counters().Inc("ckpt.torn", 1)
	case errors.Is(err, storage.ErrNotFound):
		// A committed image vanished (a lost in-place overwrite, or a
		// chain whose ancestor was wrongly garbage-collected).
		s.Counters().Inc("ckpt.lost", 1)
	}
	// The manifest we tried may have been stale: a concurrent
	// server-side compaction folds the chain into one full image under
	// the leaf's own name and retires exactly the ancestors the attempts
	// above chased. Re-read the live manifest — trusted only while the
	// fence epoch is unchanged, since an epoch advance means another
	// failover owns these pointers now — and retry the batched path
	// before rewinding to lastFull, which would silently discard deltas
	// that are still perfectly restorable.
	if live := s.chainObjs; len(live) > 0 && live[len(live)-1] == s.lastLeaf &&
		!slices.Equal(live, manifest) &&
		s.fence.Epoch() == fenceEpoch {
		m := append([]string(nil), live...)
		if chain, err2 := checkpoint.LoadChainManifest(src, env, m); err2 == nil {
			s.Counters().Inc("restore.manifest_refresh", 1)
			return chain, readWait
		}
	}
	if s.lastFull == "" || s.lastFull == s.lastLeaf {
		return nil, 0
	}
	// Torn-chain fallback: rewind the recovery pointer to the last full
	// image. The deltas after it are lost, the job is not.
	chain, err = checkpoint.LoadChain(src, env, s.lastFull)
	if err != nil {
		return nil, 0
	}
	s.Counters().Inc("ckpt.chain_fallback", 1)
	return chain, readWait
}

// observeRestore records the modeled recovery latency of a successful
// restart from chain: the measured storage wait of the chain read plus
// the replay cost at the supervisor's restore width. The replay cost is
// modeled (checkpoint.RestoreCost over replayed, the post-pruning bytes
// the restore handed back in proc.Process.ReplayBytes, so the chain is
// planned once) rather than measured off the node clock so the
// histogram stays comparable across nodes and the observation itself
// never perturbs the cluster's deterministic schedule.
func (s *Supervisor) observeRestore(chain []*checkpoint.Image, replayed int, readWait simtime.Duration) {
	lat := readWait + checkpoint.RestoreCost(replayed, s.restoreWorkers)
	s.Metrics.Hist("restore.latency").Observe(float64(lat.Millis()))
	s.Metrics.Hist("restore.chain_len").Observe(float64(len(chain)))
	s.Counters().Inc("restore.count", 1)
	s.Counters().Inc("restore.deltas_replayed", int64(len(chain)-1))
}

// failover restarts the job on a node the detector considers healthy.
// It advances the fencing epoch FIRST (from this instant no writer of
// the old incarnation can commit) and arms the new incarnation's agent
// last. Note what is absent: any check that the old node is actually
// dead. If it is not, its agent will be told so by the storage server
// (ErrFenced) and self-fence.
func (s *Supervisor) failover() error {
	s.noteFailure()
	epoch := s.fence.Advance()
	s.emit(EvFailover, s.node, epoch, "")
	if s.lazy != nil {
		// A still-draining lazy restore belongs to the incarnation we
		// just fenced off: poison it so the stale process faults instead
		// of materializing more state.
		s.failLazy(nil)
	}
	// Snapshot the chain manifest before the bookkeeping below clears
	// it: the manifest is what makes the batched-read fast path (and the
	// lazy restore's ancestor list) possible, and it describes exactly
	// the chain this failover restores from.
	manifest := append([]string(nil), s.chainObjs...)
	// The superseded incarnation's chain is still the recovery pointer's
	// ancestry: it must survive on the server until the next
	// incarnation's first full ack supersedes it. Queue it for retire —
	// deletion happens only after that ack, never here.
	s.pendingRetire = append(s.pendingRetire, s.chainObjs...)
	s.chainObjs = nil
	s.chainSizes = nil
	spare := s.pickRestoreNode(s.node)
	if spare < 0 {
		return errors.New("cluster: no unsuspected spare node")
	}
	// recoveryTarget reads through the placement the acked chain was
	// written under; the new incarnation's first capture re-anchors
	// placement at the spare afterwards.
	if err := s.restartOn(spare, s.recoveryTarget(spare), manifest, epoch); err != nil {
		return err
	}
	s.armAgent(spare, s.pid, epoch)
	s.emit(EvAdmit, spare, epoch, "")
	return nil
}
