package experiments

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/policy"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/workload"
)

// E17 measures what checkpoint replication costs and what it buys,
// against the unreplicated single-server restore of E16: the
// healthy-path publish overhead of fanning a capture out to a buddy
// pair or a 2+1 erasure set (stored = total bytes on disk vs object
// size), the restore latency when the owner's disk is gone and the read
// ladder falls back to the mirror over the wire or a k-of-n
// reconstruction, and the failover-measured restore.latency p50 of a
// full autonomic run under each placement mode. The acceptance line:
// each replicated run's restore p50 within 2x of the unreplicated
// baseline run's.
func E17(quick bool) []Record {
	mib := 4
	if quick {
		mib = 2
	}
	rec := &recorder{exp: "E17"}

	// Micro bench: one full-image capture through each placement, publish
	// wait measured; then the restore with every holder up and with the
	// owner's disk dead. The unreplicated server write is both the write
	// and restore baseline.
	base, err := e17Capture(mib, "none")
	if rec.check(err) {
		for _, mode := range []string{"none", "buddy", "erasure"} {
			m := base
			if mode != "none" {
				if m, err = e17Capture(mib, mode); !rec.check(err) {
					continue
				}
			}
			rec.ms(mode, "publish_ms", m.publishMs)
			rec.ratio(mode, "publish_vs_none", "x", m.publishMs, base.publishMs)
			rec.add(mode, "stored_bytes", "B", 1, float64(m.storedBytes))
			rec.ratio(mode, "redundancy", "x", float64(m.storedBytes), float64(base.objectBytes))
			healthy, err := m.restoreMs(false)
			if !rec.check(err) {
				continue
			}
			rec.ms(mode, "healthy_restore_ms", healthy)
			if mode == "none" {
				continue
			}
			degraded, err := m.restoreMs(true)
			if !rec.check(err) {
				continue
			}
			rec.ms(mode, "degraded_restore_ms", degraded)
			if baseMs, err := base.restoreMs(false); rec.check(err) {
				rec.ratio(mode, "degraded_vs_baseline", "x", degraded, baseMs)
			}
		}
	}

	// Cluster bench: the E16 autonomic scenario (incremental shipping,
	// scripted failovers, background compaction) re-run under each
	// placement mode. The unreplicated run's p50 anchors the 2x bound
	// for the replicated (degraded-read) runs.
	baseP50 := e17Cluster(rec, quick, "baseline cluster", nil)
	for _, rc := range []*cluster.ReplicationConfig{
		{Mode: cluster.ReplBuddy},
		{Mode: cluster.ReplErasure, DataShards: 2, ParityShards: 1},
	} {
		p50 := e17Cluster(rec, quick, "replicated "+string(rc.Mode), rc)
		rec.ratio("replicated "+string(rc.Mode), "restore_p50_vs_baseline", "x", p50, baseP50)
	}
	return rec.done()
}

// e17Result is one full image captured through a placement mode: the
// modeled publish wait, the object's size, and the bytes stored across
// all replicas.
type e17Result struct {
	tgt         storage.Target
	ownerUp     *bool
	leaf        string
	objectBytes int
	storedBytes int
	publishMs   float64
}

func e17Capture(mib int, mode string) (*e17Result, error) {
	cm := costmodel.Default2005()
	res := &e17Result{}
	up := true
	res.ownerUp = &up
	srv := storage.NewServer("e17-srv", cm)
	var members []storage.Target
	switch mode {
	case "none":
		res.tgt = storage.NewRemote("e17-net", srv)
		members = []storage.Target{res.tgt}
	case "buddy":
		owner := storage.NewLocal("e17-n0", cm, func() bool { return up })
		buddy := storage.NewLocal("e17-n1", cm, nil)
		members = []storage.Target{owner, buddy, storage.NewRemote("e17-net", srv)}
		r, err := storage.NewReplicated("e17-repl", []storage.Replica{
			{T: owner, Role: storage.RoleLocal},
			{T: storage.OverWire(buddy, cm), Role: storage.RoleBuddy},
			{T: storage.NewRemote("e17-net", srv), Role: storage.RoleRemote},
		}, storage.ReplicatedConfig{Quorum: 2})
		if err != nil {
			return nil, err
		}
		res.tgt = r
	case "erasure":
		var reps []storage.Replica
		for i := 0; i < 3; i++ {
			i := i
			d := storage.NewLocal(fmt.Sprintf("e17-n%d", i), cm, func() bool { return i != 0 || up })
			members = append(members, d)
			t := storage.Target(d)
			if i != 0 {
				t = storage.OverWire(d, cm)
			}
			reps = append(reps, storage.Replica{T: t, Role: storage.RoleShard})
		}
		r, err := storage.NewReplicated("e17-repl", reps, storage.ReplicatedConfig{DataShards: 2, ParityShards: 1})
		if err != nil {
			return nil, err
		}
		res.tgt = r
	}

	prog := workload.Sparse{MiB: mib, WriteFrac: 0.02, Seed: 17}
	k := newMachine("e17", prog)
	p, err := k.Spawn(prog.Name())
	if err != nil {
		return nil, err
	}
	workload.SetIterations(p, 1<<30)
	k.RunFor(50 * simtime.Microsecond)
	k.Stop(p)
	if p.State == proc.StateZombie {
		return nil, fmt.Errorf("e17: workload exited before capture")
	}
	env, wait := waitEnv()
	img, _, err := checkpoint.Capture(checkpoint.Request{
		Acc:    &checkpoint.KernelAccessor{K: k, P: p},
		Target: res.tgt, Env: env,
		Mechanism: "e17", Hostname: "e17", Seq: 1, Now: k.Now(),
	})
	if err != nil {
		return nil, err
	}
	res.leaf = img.ObjectName()
	res.publishMs = wait.Millis()
	if n, err := res.tgt.ObjectSize(res.leaf); err == nil {
		res.objectBytes = n
	}
	for _, m := range members {
		if n, err := m.ObjectSize(res.leaf); err == nil {
			res.storedBytes += n
		}
	}
	return res, nil
}

// restoreMs loads the captured chain back through the replica ladder and
// returns the modeled read wait; degraded masks the owner's disk first
// (and restores it after), so the read comes from the nearest surviving
// replica — the mirror over the wire, or a k-of-n reconstruction.
func (res *e17Result) restoreMs(degraded bool) (float64, error) {
	if degraded {
		*res.ownerUp = false
		defer func() { *res.ownerUp = true }()
	}
	env, wait := waitEnv()
	if _, err := checkpoint.LoadChain(res.tgt, env, res.leaf); err != nil {
		return 0, err
	}
	return wait.Millis(), nil
}

// e17Cluster is the E16 autonomic scenario re-run under a placement
// mode: incremental shipping, background compaction, and two scripted
// kills of the job's node once a few checkpoints have acked, so every
// measured restore is a replicated chain read rather than a
// from-scratch restart. It returns the restore latency p50.
func e17Cluster(rec *recorder, quick bool, cs string, repl *cluster.ReplicationConfig) float64 {
	c, sup := newJob(17, 0.1, clusterIters(quick), cluster.SupervisorConfig{
		Policy:       policy.Fixed(simtime.Millisecond),
		Incremental:  true,
		RebaseEvery:  64,
		CompactAfter: 4,
		Replication:  repl,
	})
	killTwice(c, sup, cluster.EvAck, 3)
	err := sup.Run(10 * simtime.Second)

	snap := sup.Metrics.Hist("restore.latency").Snapshot()
	rec.flag(cs, "completed", err == nil && sup.Completed)
	rec.count(cs, "restores", int64(snap.N))
	rec.dist(cs, "restore_ms", "ms", snap)
	for _, name := range []string{"repaired", "rebuddy", "read_local", "read_buddy",
		"read_shards", "read_reconstruct", "read_remote"} {
		rec.count(cs, "repl_"+name, c.Counters.Get("repl."+name))
	}
	return snap.P50
}
