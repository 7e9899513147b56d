// Replication policy tests: placement, degraded restore, background
// re-replication, and the config validation that keeps impossible
// geometries out of the supervisor. These run the full autonomic loop —
// detector suspicions, fenced failover — with the replica placement
// layered on top, and assert through counters and the storage targets
// themselves, never the simulator oracle.

package cluster

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/detector"
	"repro/internal/mechanism"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/syslevel"
	"repro/internal/workload"
)

// replicatedSupervisor builds the standard 4-node autonomic fixture
// (worker nodes 0-2, control+observer on 3) with the given replication
// policy.
func replicatedSupervisor(t *testing.T, c *Cluster, prog workload.Sparse, iters uint64,
	rc *ReplicationConfig) *Supervisor {
	t.Helper()
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: c.NumNodes() - 1}, c.Counters)
	return MustNewSupervisor(SupervisorConfig{
		C:           c,
		MkMech:      func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:        prog,
		Iterations:  iters,
		Policy:      policy.Fixed(3 * simtime.Millisecond),
		Detector:    mon,
		ControlNode: c.NumNodes() - 1,
		Replication: rc,
	})
}

// TestReplicationBuddyPlacementAndQuorum runs a healthy buddy-pair job
// to completion and verifies the write path actually fanned out: the
// recovery pointer is present on the owner's disk, the buddy's disk, AND
// the shared server, and every ack paid a quorum publish.
func TestReplicationBuddyPlacementAndQuorum(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 41}
	want := referenceFingerprint(t, prog, 60)
	c := newCluster(t, 4, prog)
	sup := replicatedSupervisor(t, c, prog, 60, &ReplicationConfig{Mode: ReplBuddy})
	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if !sup.Completed || sup.Fingerprint != want {
		t.Fatalf("completed=%v fingerprint=%#x want %#x", sup.Completed, sup.Fingerprint, want)
	}
	if n := c.Counters.Get("repl.publishes"); n == 0 {
		t.Fatal("no quorum publishes recorded")
	}
	if sup.ReplicationMode() != ReplBuddy {
		t.Fatalf("mode = %q", sup.ReplicationMode())
	}
	placement := sup.ReplicaPlacement()
	if len(placement) != 3 || placement[len(placement)-1] != -1 {
		t.Fatalf("buddy placement = %v, want [owner buddy -1]", placement)
	}
	leaf := sup.LastLeaf()
	if leaf == "" {
		t.Fatal("no recovery pointer after a completed run")
	}
	for _, slot := range placement {
		var tgt storage.Target
		if slot < 0 {
			tgt = c.Node(0).Remote()
		} else {
			tgt = c.Node(slot).Disk
		}
		if _, err := tgt.ReadObject(leaf, nil); err != nil {
			t.Fatalf("leaf %s missing on slot %d (%s): %v", leaf, slot, tgt.Name(), err)
		}
	}
	if sup.OracleReads != 0 {
		t.Fatalf("replicated supervisor read ground truth %d times", sup.OracleReads)
	}
}

// TestReplicationBuddyRestoreFromNearestReplica kills the job's node and
// checks the failover restored from a replica disk — the buddy scheme's
// read-side payoff — rather than from the server, and that the job still
// finishes with the right answer.
func TestReplicationBuddyRestoreFromNearestReplica(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 42}
	want := referenceFingerprint(t, prog, 60)
	c := newCluster(t, 4, prog)
	sup := replicatedSupervisor(t, c, prog, 60, &ReplicationConfig{Mode: ReplBuddy})
	killed := false
	c.OnStep(func() {
		if !killed && c.Now() >= simtime.Time(8*simtime.Millisecond) {
			killed = true
			c.Fail(0) // the job starts on node 0
		}
	})
	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if !sup.Completed || sup.Fingerprint != want {
		t.Fatalf("completed=%v fingerprint=%#x want %#x (restarts=%d scratch=%d)",
			sup.Completed, sup.Fingerprint, want, sup.Restarts, sup.FromScratch)
	}
	if sup.Restarts == 0 {
		t.Fatal("the node kill caused no failover")
	}
	if sup.FromScratch != 0 {
		t.Fatalf("%d scratch restarts with a surviving buddy replica", sup.FromScratch)
	}
	// The restore node is a replica holder, so the chain read is served
	// from its own disk (local) or another buddy — never only the server.
	near := c.Counters.Get("repl.read_local") + c.Counters.Get("repl.read_buddy")
	if near == 0 {
		t.Fatalf("restore never read from a nearby replica (local=%d buddy=%d remote=%d)",
			c.Counters.Get("repl.read_local"), c.Counters.Get("repl.read_buddy"),
			c.Counters.Get("repl.read_remote"))
	}
}

// TestReplicationErasureSurvivesOwnerLoss runs the 2+1 erasure geometry
// (three worker disks, no server copies), kills the owner, and requires
// the restore to decode from the two surviving shards.
func TestReplicationErasureSurvivesOwnerLoss(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 43}
	want := referenceFingerprint(t, prog, 60)
	c := newCluster(t, 4, prog)
	sup := replicatedSupervisor(t, c, prog, 60,
		&ReplicationConfig{Mode: ReplErasure, DataShards: 2, ParityShards: 1})
	killed := false
	c.OnStep(func() {
		if !killed && c.Now() >= simtime.Time(8*simtime.Millisecond) {
			killed = true
			c.Fail(0)
		}
	})
	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if !sup.Completed || sup.Fingerprint != want {
		t.Fatalf("completed=%v fingerprint=%#x want %#x (restarts=%d scratch=%d)",
			sup.Completed, sup.Fingerprint, want, sup.Restarts, sup.FromScratch)
	}
	if sup.Restarts == 0 {
		t.Fatal("the node kill caused no failover")
	}
	if sup.FromScratch != 0 {
		t.Fatalf("%d scratch restarts with n-1 shards surviving", sup.FromScratch)
	}
	// Losing the owner loses shard 0, so the restore must have solved for
	// it from parity.
	if n := c.Counters.Get("repl.read_reconstruct"); n == 0 {
		t.Fatalf("owner loss never forced a parity reconstruct (shards=%d reconstruct=%d)",
			c.Counters.Get("repl.read_shards"), n)
	}
	// Erasure placement has no server slot: nothing may land there.
	if objs := c.Node(1).Remote().List(); len(objs) != 0 {
		t.Fatalf("erasure mode leaked %d objects to the server: %v", len(objs), objs)
	}
}

// TestReplicationRepairConvergesAfterBuddyLoss kills a BUDDY (not the
// owner): the job never fails over, but the placement loses a replica
// holder. The repair sweep must reassign the slot to a fresh node
// (EvRebuddy) and re-replicate the chain onto it, restoring full
// redundancy while the job keeps running.
func TestReplicationRepairConvergesAfterBuddyLoss(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 44}
	c := newCluster(t, 4, prog)
	// The slot is reassigned after one 3ms interval of suspicion, well
	// within the run.
	sup := replicatedSupervisor(t, c, prog, 200, &ReplicationConfig{Mode: ReplBuddy})
	var buddy int
	killed := false
	c.OnStep(func() {
		if !killed && c.Now() >= simtime.Time(10*simtime.Millisecond) {
			if p := sup.ReplicaPlacement(); len(p) >= 2 {
				killed = true
				buddy = p[1]
				c.FailKind(buddy, Permanent)
			}
		}
	})
	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("no placement formed before the kill point")
	}
	if !sup.Completed {
		t.Fatalf("job did not complete (ckpts=%d restarts=%d)", sup.Checkpoints, sup.Restarts)
	}
	if n := c.Counters.Get("repl.rebuddy"); n == 0 {
		t.Fatal("dead buddy's slot was never reassigned")
	}
	if n := c.Counters.Get("repl.repaired"); n == 0 {
		t.Fatal("no replicas were re-replicated after the reassignment")
	}
	placement := sup.ReplicaPlacement()
	for _, slot := range placement {
		if slot == buddy {
			t.Fatalf("dead node %d still holds a placement slot: %v", buddy, placement)
		}
	}
	// Redundancy has converged: the recovery pointer is on every current
	// slot, including the replacement buddy.
	leaf := sup.LastLeaf()
	for _, slot := range placement {
		var tgt storage.Target
		if slot < 0 {
			tgt = c.Node(sup.node).Remote()
		} else {
			tgt = c.Node(slot).Disk
		}
		if _, err := tgt.ReadObject(leaf, nil); err != nil {
			t.Fatalf("leaf %s missing on slot %d after repair: %v", leaf, slot, err)
		}
	}
	sawRebuddy, sawRepair := false, false
	for _, ev := range sup.Events {
		switch ev.Kind {
		case EvRebuddy:
			sawRebuddy = true
		case EvRepair:
			sawRepair = true
		}
	}
	if !sawRebuddy || !sawRepair {
		t.Fatalf("event log missing rebuddy/repair (rebuddy=%v repair=%v)", sawRebuddy, sawRepair)
	}
}

// TestReplicationPipelinedShipping exercises the replicated fan-out
// through the pipelined publish path (publishUnit instead of the
// synchronous pump) and checks quorum publishes and placement land the
// same way.
func TestReplicationPipelinedShipping(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 45}
	// A 1 MiB full image needs ~25ms on the modeled wire+spindle; the job
	// must outlive several transfers for the pipelined path to drain.
	want := referenceFingerprint(t, prog, 300)
	c := newCluster(t, 4, prog)
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 3}, c.Counters)
	sup := MustNewSupervisor(SupervisorConfig{
		C:           c,
		MkMech:      func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:        prog,
		Iterations:  300,
		Policy:      policy.Fixed(3 * simtime.Millisecond),
		Detector:    mon,
		ControlNode: 3,
		Incremental: true,
		RebaseEvery: 8,
		Pipeline:    &PipelineConfig{MaxInFlight: 2},
		Replication: &ReplicationConfig{Mode: ReplBuddy},
	})
	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if !sup.Completed || sup.Fingerprint != want {
		t.Fatalf("completed=%v fingerprint=%#x want %#x", sup.Completed, sup.Fingerprint, want)
	}
	if n := c.Counters.Get("pipe.shipped"); n == 0 {
		t.Fatal("nothing went through the pipelined path")
	}
	if n := c.Counters.Get("repl.publishes"); n == 0 {
		t.Fatal("pipelined publishes never fanned out to the replica set")
	}
	leaf := sup.LastLeaf()
	for _, slot := range sup.ReplicaPlacement() {
		if slot < 0 {
			continue
		}
		if _, err := c.Node(slot).Disk.ReadObject(leaf, nil); err != nil {
			t.Fatalf("leaf %s missing on node %d disk: %v", leaf, slot, err)
		}
	}
}

// TestPipelineStaleQueueDropAccounting locks the ship-queue bookkeeping
// on the fence path: when a stale agent's queued units die with its
// self-fence, every queued image is counted dropped exactly once and
// none of them is also counted shipped.
func TestPipelineStaleQueueDropAccounting(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 46}
	c := newCluster(t, 2, prog)
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 1}, c.Counters)
	sup := MustNewSupervisor(SupervisorConfig{
		C:           c,
		MkMech:      func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:        prog,
		Iterations:  60,
		Policy:      policy.Fixed(3 * simtime.Millisecond),
		Detector:    mon,
		ControlNode: 1,
		Pipeline:    &PipelineConfig{},
	})
	epoch := sup.fence.Advance()
	a := &ckptAgent{s: sup, node: 0, pid: 1, epoch: epoch, chain: checkpoint.NewDeltaChain(1)}
	a.ship = []*shipUnit{
		{imgs: []shipImage{{obj: "u1-a", data: []byte("aa")}, {obj: "u1-b", data: []byte("bb")}}},
		{imgs: []shipImage{{obj: "u2-a", data: []byte("cc")}}},
	}
	// Supersede the agent, then let it try to drain: the first publish
	// hits the fence, the agent self-fences, and all three queued images
	// must be dropped — not shipped, not double-counted.
	sup.fence.Advance()
	a.advanceShip(c.Node(0))
	c.RunFor(simtime.Second) // the transfer completes on cluster time
	a.advanceShip(c.Node(0))
	if !a.stopped {
		t.Fatal("stale agent did not self-fence on the queued publish")
	}
	if got := c.Counters.Get("pipe.dropped"); got != 3 {
		t.Fatalf("pipe.dropped = %d, want 3", got)
	}
	if got := c.Counters.Get("pipe.shipped"); got != 0 {
		t.Fatalf("pipe.shipped = %d, want 0 for an all-stale queue", got)
	}
	if got := c.Counters.Get("fence.suicides"); got != 1 {
		t.Fatalf("fence.suicides = %d, want 1", got)
	}
}

// TestReplicationConfigValidation rejects geometries the cluster cannot
// place at construction time.
func TestReplicationConfigValidation(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 47}
	c := newCluster(t, 4, prog) // 3 worker nodes
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 3}, c.Counters)
	base := SupervisorConfig{
		C:           c,
		MkMech:      func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:        prog,
		Iterations:  10,
		Policy:      policy.Fixed(simtime.Millisecond),
		Detector:    mon,
		ControlNode: 3,
	}
	cases := []struct {
		name string
		rc   *ReplicationConfig
		frag string
	}{
		{"unknown mode", &ReplicationConfig{Mode: "raid"}, "unknown Mode"},
		{"erasure too wide", &ReplicationConfig{Mode: ReplErasure, DataShards: 3, ParityShards: 2}, "worker nodes"},
		{"negative geometry", &ReplicationConfig{Mode: ReplErasure, DataShards: -1}, "negative"},
	}
	for _, tc := range cases {
		cfg := base
		cfg.Replication = tc.rc
		_, err := NewSupervisor(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("%s: error %v does not mention %q", tc.name, err, tc.frag)
		}
	}
	// And the happy path still constructs.
	cfg := base
	cfg.Replication = &ReplicationConfig{Mode: ReplErasure, DataShards: 2, ParityShards: 1}
	if _, err := NewSupervisor(cfg); err != nil {
		t.Fatalf("valid 2+1 geometry rejected: %v", err)
	}
	// A buddy pair needs two worker nodes; a 2-node cluster has one.
	c2 := newCluster(t, 2, prog)
	cfg = base
	cfg.C = c2
	cfg.Detector = detector.NewMonitor(c2, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 1}, c2.Counters)
	cfg.ControlNode = 1
	cfg.Replication = &ReplicationConfig{Mode: ReplBuddy}
	if _, err := NewSupervisor(cfg); err == nil || !strings.Contains(err.Error(), "worker nodes") {
		t.Fatalf("buddy pair on one worker: error %v does not mention %q", err, "worker nodes")
	}
}
