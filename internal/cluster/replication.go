// Cluster-side replication policy: where checkpoint replicas live, how
// the supervisor's agents write through them, and how redundancy is
// rebuilt when a replica holder dies. The storage layer's Replicated
// target (internal/storage) knows how to fan a write out and walk a
// degraded-read ladder; this file decides the placement set — self +
// buddy on the other failure domain, or k-of-n erasure shards across
// node-local disks — and keeps it healthy across failovers.
//
// Placement is anchored at the job's current node (the owner). In buddy
// mode the owner's own disk comes first, then the buddies' disks reached
// over the wire, then the shared checkpoint server: the write pays the
// interconnect for the buddy copies, the restore reads the nearest
// surviving copy. In erasure mode the object is cut into k data + m
// parity shards, one per node-local disk (slot index = shard index), and
// the server holds nothing — full redundancy at a fraction of the
// mirrored capacity, the §4.1 trade.

package cluster

import (
	"errors"
	"fmt"

	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/storage/erasure"
)

// ReplicationMode selects the redundancy scheme.
type ReplicationMode string

const (
	// ReplBuddy mirrors every checkpoint to the owner's disk, one buddy
	// node's disk, and the shared server; a write is acknowledged once
	// two of the three publish.
	ReplBuddy ReplicationMode = "buddy"
	// ReplErasure cuts every checkpoint into DataShards+ParityShards
	// erasure shards, one per node-local disk; a write is acknowledged
	// once DataShards+1 shards publish. The server holds nothing.
	ReplErasure ReplicationMode = "erasure"
)

// ReplicationConfig is the supervisor's placement policy. Nil disables
// replication (checkpoints go to the shared server only, as before).
// Autonomic mode only: placement follows the detector's suspicions.
//
// A replica holder suspected for one base checkpoint interval has its
// slot reassigned to a fresh node and re-replicated. A much shorter wait
// would re-buddy on every network blip; a much longer one would widen
// the window where a second failure is fatal.
type ReplicationConfig struct {
	// Mode selects buddy mirroring or erasure coding. Required.
	Mode ReplicationMode
	// DataShards/ParityShards is the ReplErasure geometry (default 2+1:
	// any single shard loss is survivable at 1.5x capacity).
	DataShards   int
	ParityShards int
}

// failureDomain maps a node index to its failure domain (rack, PSU):
// even and odd nodes. Buddy assignment prefers a different domain than
// the owner's, so a domain-wide outage cannot take both copies.
func failureDomain(node int) int { return node % 2 }

func (rc *ReplicationConfig) dataShards() int {
	if rc.DataShards > 0 {
		return rc.DataShards
	}
	return 2
}

func (rc *ReplicationConfig) parityShards() int {
	if rc.ParityShards > 0 {
		return rc.ParityShards
	}
	return 1
}

// validate rejects geometries the cluster cannot place. workers is how
// many nodes can hold job state (every node except the control node).
func (rc *ReplicationConfig) validate(workers int) error {
	switch rc.Mode {
	case ReplBuddy, ReplErasure:
	default:
		return fmt.Errorf("cluster: ReplicationConfig: unknown Mode %q", rc.Mode)
	}
	if rc.DataShards < 0 || rc.ParityShards < 0 {
		return errors.New("cluster: ReplicationConfig: negative field")
	}
	switch rc.Mode {
	case ReplBuddy:
		if workers < 2 {
			return fmt.Errorf("cluster: ReplicationConfig: a buddy pair needs 2 worker nodes, have %d", workers)
		}
	case ReplErasure:
		k, m := rc.dataShards(), rc.parityShards()
		if k+m > workers {
			return fmt.Errorf("cluster: ReplicationConfig: erasure geometry %d+%d needs %d worker nodes, have %d",
				k, m, k+m, workers)
		}
	}
	return nil
}

// replSlot is one placement slot: a worker node's disk, or the shared
// server (node -1). In erasure mode the slot index is the shard index.
type replSlot struct {
	node int
	role storage.ReplicaRole
}

// replState is the supervisor's live placement, anchored at the current
// owner and mutated only by failover (recomputed) and slot reassignment.
type replState struct {
	owner        int
	slots        []replSlot
	downSince    map[int]simtime.Time // suspected slot holder -> first seen
	nextRepairAt simtime.Time
}

// buddyCandidates orders the worker nodes other than owner for placement:
// unsuspected nodes on a different failure domain first (a co-failing
// buddy protects nothing), then unsuspected same-domain, then suspected
// ones as a last resort — erasure geometries need their exact slot count
// even when the cluster is degraded.
func (s *Supervisor) buddyCandidates(owner int) []int {
	var crossUp, sameUp, crossDown, sameDown []int
	for i := 0; i < s.C.NumNodes(); i++ {
		if i == owner || i == s.ControlNode {
			continue
		}
		suspected := s.det.Suspected(i)
		cross := failureDomain(i) != failureDomain(owner)
		switch {
		case cross && !suspected:
			crossUp = append(crossUp, i)
		case !suspected:
			sameUp = append(sameUp, i)
		case cross:
			crossDown = append(crossDown, i)
		default:
			sameDown = append(sameDown, i)
		}
	}
	out := append(crossUp, sameUp...)
	out = append(out, crossDown...)
	return append(out, sameDown...)
}

// placementFor computes the slot set for a job owned by owner.
func (s *Supervisor) placementFor(owner int) []replSlot {
	rc := s.Replication
	if rc.Mode == ReplErasure {
		n := rc.dataShards() + rc.parityShards()
		slots := make([]replSlot, 0, n)
		slots = append(slots, replSlot{owner, storage.RoleShard})
		for _, cand := range s.buddyCandidates(owner) {
			if len(slots) == n {
				break
			}
			slots = append(slots, replSlot{cand, storage.RoleShard})
		}
		return slots
	}
	slots := []replSlot{{owner, storage.RoleLocal}}
	if cands := s.buddyCandidates(owner); len(cands) > 0 {
		slots = append(slots, replSlot{cands[0], storage.RoleBuddy})
	}
	return append(slots, replSlot{-1, storage.RoleRemote})
}

// ensurePlacement (re)anchors the placement at owner. A failover changes
// the owner, so the first capture of the new incarnation recomputes the
// whole set; mid-incarnation the placement only changes one slot at a
// time, through reassignDeadSlots.
func (s *Supervisor) ensurePlacement(owner int) {
	if s.repl == nil {
		s.repl = &replState{owner: -1, downSince: make(map[int]simtime.Time)}
	}
	if s.repl.slots != nil && s.repl.owner == owner {
		return
	}
	s.repl.owner = owner
	s.repl.slots = s.placementFor(owner)
	s.repl.downSince = make(map[int]simtime.Time)
}

// slotTarget resolves a slot to a concrete target as seen from node
// `from`: its own disk directly, another node's disk over the wire, the
// shared server through the node's client.
func (s *Supervisor) slotTarget(sl replSlot, from int) storage.Target {
	switch {
	case sl.node < 0:
		return s.C.Node(from).Remote()
	case sl.node == from:
		return s.C.Node(sl.node).Disk
	default:
		return storage.OverWire(s.C.Node(sl.node).Disk, s.C.CM)
	}
}

// buildReplicated assembles the storage.Replicated target named name
// over the given slots, as seen from node from, with the given quorum (0
// for the storage default). Each member is fence-wrapped individually
// (when fenced), so a stale-epoch writer is rejected at every replica's
// commit point — the fence contract's replicated form.
func (s *Supervisor) buildReplicated(name string, slots []replSlot, from int, epoch uint64, fenced bool, quorum int) (*storage.Replicated, error) {
	rc := s.Replication
	reps := make([]storage.Replica, len(slots))
	for i, sl := range slots {
		t := s.slotTarget(sl, from)
		if fenced {
			t = storage.FencedAt(t, s.fence, epoch)
		}
		reps[i] = storage.Replica{T: t, Role: sl.role}
	}
	cfg := storage.ReplicatedConfig{Quorum: quorum, Counters: s.Counters(), Metrics: s.Metrics}
	if rc.Mode == ReplErasure {
		cfg.DataShards = rc.dataShards()
		cfg.ParityShards = rc.parityShards()
	}
	return storage.NewReplicated(name, reps, cfg)
}

// shipTarget is the one place an agent's publish target is built, and
// it reports whether that target is the agent's node disk (local): the
// disk under UseLocalDisk or for a LocalFallback round (fallback), else
// the plain server client without replication, or the replicated set
// over the current placement with it. Each is fenced at the agent's
// epoch unless NoFencing. UnsafeCommit wraps the result in
// storage.Unsafe outermost, where storage.Write looks for it. A
// synchronous round captures into the target, and a pipelined one
// publishes its queue through it in publishUnit.
func (s *Supervisor) shipTarget(a *ckptAgent, fallback bool) (tgt storage.Target, local bool) {
	fence := func(t storage.Target) storage.Target {
		if s.NoFencing {
			return t
		}
		return storage.FencedAt(t, s.fence, a.epoch)
	}
	n := s.C.Node(a.node)
	local = fallback || s.UseLocalDisk
	switch {
	case local:
		tgt = fence(n.Disk)
	case s.Replication == nil:
		tgt = fence(n.Remote())
	default:
		s.ensurePlacement(a.node)
		r, err := s.buildReplicated("repl", s.repl.slots, a.node, a.epoch, !s.NoFencing, 0)
		if err != nil {
			// Geometry was validated at construction; this is unreachable,
			// but degrading to the server path beats dropping the
			// checkpoint.
			tgt = fence(n.Remote())
			break
		}
		tgt = r
	}
	if s.UnsafeCommit {
		tgt = storage.Unsafe(tgt)
	}
	return tgt, local
}

// recoveryTarget is where a restart on spare reads the last good image.
// When that image went to a node-local disk it is that disk, unreachable
// if its node is down (the paper's warning about local-only storage).
// With replication it is the read side of restore-from-nearest-surviving-
// replica: the replica set as seen from the restore node, ordered so the
// ladder tries its own disk first, then the other surviving holders over
// the wire, then the server. The placement is the one the acked chain was
// written under — failover calls this before the new incarnation
// re-anchors placement at the spare. Reads are unfenced (the fence guards
// mutations); a mirror set needs any one survivor, an erasure set any k.
// Otherwise it is the server, reached from spare.
func (s *Supervisor) recoveryTarget(spare int) storage.Target {
	if s.lastLocal {
		return s.C.Node(s.lastNode).Disk
	}
	if s.Replication == nil || s.repl == nil || len(s.repl.slots) == 0 {
		return s.C.Node(spare).Remote()
	}
	rc := s.Replication
	if rc.Mode == ReplErasure {
		// Slot order is shard identity: never reorder.
		r, err := s.buildReplicated("repl-restore", s.repl.slots, spare, 0, false, rc.dataShards())
		if err != nil {
			return s.C.Node(spare).Remote()
		}
		return r
	}
	var reps []storage.Replica
	for _, sl := range s.repl.slots {
		if sl.node == spare {
			reps = append(reps, storage.Replica{T: s.C.Node(spare).Disk, Role: storage.RoleLocal})
		}
	}
	for _, sl := range s.repl.slots {
		if sl.node >= 0 && sl.node != spare {
			reps = append(reps, storage.Replica{
				T: storage.OverWire(s.C.Node(sl.node).Disk, s.C.CM), Role: storage.RoleBuddy})
		}
	}
	reps = append(reps, storage.Replica{T: s.C.Node(spare).Remote(), Role: storage.RoleRemote})
	r, err := storage.NewReplicated("repl-restore", reps, storage.ReplicatedConfig{
		Quorum: 1, Counters: s.Counters(), Metrics: s.Metrics,
	})
	if err != nil {
		return s.C.Node(spare).Remote()
	}
	return r
}

// pickRestoreNode chooses where the next incarnation runs. With
// replication, an unsuspected replica holder is preferred — it restores
// from its own disk instead of pulling the image across the wire (the
// buddy scheme's whole read-side payoff). Otherwise, and as the
// fallback, the detector picks any unsuspected node.
func (s *Supervisor) pickRestoreNode(failed int) int {
	if s.Replication != nil && s.repl != nil {
		for _, sl := range s.repl.slots {
			if sl.node < 0 || sl.node == failed || sl.node == s.ControlNode {
				continue
			}
			if !s.det.Suspected(sl.node) {
				return sl.node
			}
		}
	}
	return s.det.PickHealthy(failed)
}

// repairCadence is how often the background re-replication sweep runs.
func (s *Supervisor) repairCadence() simtime.Duration {
	d := s.Policy.Base() / 4
	if d < simtime.Millisecond {
		d = simtime.Millisecond
	}
	return d
}

// maybeRepair is the background re-replication sweep, run from the agent
// pump loop: reassign placement slots whose holder has been suspected
// for one base interval, then restore full redundancy for every live chain
// object that is missing from a reachable slot. Repair writes go through
// the current-epoch fenced replicated target, so a sweep raced by a
// failover is rejected at the replicas instead of resurrecting state for
// a superseded incarnation. Like compaction, the sweep is modeled as
// off-critical-path background I/O: it charges no agent time.
func (s *Supervisor) maybeRepair() {
	if s.Replication == nil || s.repl == nil || len(s.agents) == 0 {
		return
	}
	now := s.C.Now()
	if now < s.repl.nextRepairAt {
		return
	}
	s.repl.nextRepairAt = now.Add(s.repairCadence())
	s.repairSweep(now)
}

// flushRepair runs one unconditional sweep — called when the job
// completes, so checkpoints acked between the last cadenced sweep and
// completion reach every replica slot before anyone audits (or reuses)
// the placement.
func (s *Supervisor) flushRepair() {
	if s.Replication == nil || s.repl == nil {
		return
	}
	s.repairSweep(s.C.Now())
}

// repairSweep is one pass of the re-replication loop: reassign slots
// whose holder the detector has given up on, then restore redundancy for
// every degraded live-chain object.
func (s *Supervisor) repairSweep(now simtime.Time) {
	s.reassignDeadSlots(now)
	if len(s.chainObjs) == 0 {
		return
	}
	r, err := s.buildReplicated("repl", s.repl.slots, s.repl.owner, s.fence.Epoch(), !s.NoFencing, 0)
	if err != nil {
		return
	}
	repaired := 0
	for _, obj := range append([]string(nil), s.chainObjs...) {
		want := s.chainSizes[obj]
		if !s.objectDegraded(r, obj, want) {
			continue
		}
		n, rerr := r.RepairSized(obj, want, storage.NopEnv())
		repaired += n
		if rerr != nil {
			if errors.Is(rerr, storage.ErrNotFound) {
				continue // retired or compacted out from under the sweep
			}
			s.Counters().Inc("repl.repair_failed", 1)
			break
		}
	}
	if repaired > 0 {
		s.emit(EvRepair, s.repl.owner, s.fence.Epoch(), fmt.Sprintf("%d", repaired))
	}
}

// objectDegraded reports whether any reachable replica slot is missing
// its copy (or shard) of obj — the cheap presence probe that keeps the
// steady-state sweep from re-reading every chain object every round.
// With the authoritative encoded length known (want > 0) the probe also
// flags a present-but-wrong-sized copy: the stale leaf a quorum fold
// publish left behind on the member it missed. A divergence at equal
// size slips past this probe, but the read ladder's checksum/decode
// validation still refuses it at restore time.
func (s *Supervisor) objectDegraded(r *storage.Replicated, obj string, want int) bool {
	wantLen := want
	if k, _, on := r.Erasure(); on && want > 0 {
		wantLen = erasure.ShardLen(want, k)
	}
	for _, rep := range r.Replicas() {
		if !rep.T.Available() {
			continue
		}
		n, err := rep.T.ObjectSize(obj)
		if err != nil || (wantLen > 0 && n != wantLen) {
			return true
		}
	}
	return false
}

// reassignDeadSlots replaces replica holders the detector has suspected
// continuously for one base checkpoint interval. The suspicion clock per node starts at
// the first sweep that sees it suspected and resets if the suspicion
// clears — a flapping link does not shuffle placement. The owner's slot
// is never reassigned here; owner death is a failover, which recomputes
// the whole placement.
func (s *Supervisor) reassignDeadSlots(now simtime.Time) {
	after := s.Policy.Base()
	for i := range s.repl.slots {
		sl := &s.repl.slots[i]
		if sl.node < 0 || sl.node == s.repl.owner {
			continue
		}
		if !s.det.Suspected(sl.node) {
			delete(s.repl.downSince, sl.node)
			continue
		}
		since, seen := s.repl.downSince[sl.node]
		if !seen {
			s.repl.downSince[sl.node] = now
			continue
		}
		if now.Sub(since) < after {
			continue
		}
		next := s.pickReplacement()
		if next < 0 {
			continue // nothing healthy to move to; keep watching
		}
		old := sl.node
		sl.node = next
		delete(s.repl.downSince, old)
		s.Counters().Inc("repl.rebuddy", 1)
		s.emit(EvRebuddy, next, s.fence.Epoch(), fmt.Sprintf("slot=%d from=%d", i, old))
	}
}

// pickReplacement returns an unsuspected worker node not already holding
// a slot, or -1.
func (s *Supervisor) pickReplacement() int {
	inUse := map[int]bool{s.repl.owner: true}
	for _, sl := range s.repl.slots {
		if sl.node >= 0 {
			inUse[sl.node] = true
		}
	}
	for _, cand := range s.buddyCandidates(s.repl.owner) {
		if !inUse[cand] && !s.det.Suspected(cand) {
			return cand
		}
	}
	return -1
}

// ReplicationMode returns the active mode, or "" without replication.
func (s *Supervisor) ReplicationMode() ReplicationMode {
	if s.Replication == nil {
		return ""
	}
	return s.Replication.Mode
}

// ReplicaPlacement returns the current slot-to-node assignment (-1 is
// the shared server), or nil before the first placement. The chaos
// harness's replication checkers audit durability against it.
func (s *Supervisor) ReplicaPlacement() []int {
	if s.repl == nil || s.repl.slots == nil {
		return nil
	}
	out := make([]int, len(s.repl.slots))
	for i, sl := range s.repl.slots {
		out[i] = sl.node
	}
	return out
}

// ReplicationGeometry returns the erasure geometry (0,0 for buddy mode
// or no replication).
func (s *Supervisor) ReplicationGeometry() (k, m int) {
	if s.Replication == nil || s.Replication.Mode != ReplErasure {
		return 0, 0
	}
	return s.Replication.dataShards(), s.Replication.parityShards()
}

// ChainObjects returns a copy of the live chain's acked object names,
// oldest first.
func (s *Supervisor) ChainObjects() []string {
	return append([]string(nil), s.chainObjs...)
}
