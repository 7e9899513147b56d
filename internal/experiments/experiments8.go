package experiments

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/policy"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/workload"
)

// E16 measures the restore fast path: modeled recovery latency as the
// delta chain deepens, at replay widths 1/4/8, against the one-full-
// image baseline — then the same 16-delta chain after a server-side
// fold. The claim under test: with last-writer-wins pruning and parallel
// replay, a 16-delta restore stays within ~2x of reading a single full
// image, and compaction closes the rest of the gap. Latency is the
// modeled storage read time for the chain plus the modeled copy time for
// the pruned replay plan; the restored bytes are identical at every
// width. An autonomic run with background compaction then reports the
// failover-measured restore latency.
func E16(quick bool) []Record {
	mib := 4
	if quick {
		mib = 2
	}
	rec := &recorder{exp: "E16"}

	// Baseline: a chain of one full image — pure read + full-size copy.
	var fullMs float64
	if base, err := e16Chain(mib, 0); rec.check(err) {
		n, ms, err := e16RestoreLatency(base.tgt, base.objects, 1)
		if rec.check(err) {
			fullMs = ms
			rec.count("full", "chain_len", int64(n))
			rec.ms("full", "restore_ms", ms)
		}
	}
	point := func(cs string, tgt storage.Target, objects []string, workers int) {
		n, ms, err := e16RestoreLatency(tgt, objects, workers)
		if !rec.check(err) {
			return
		}
		rec.count(cs, "chain_len", int64(n))
		rec.ms(cs, "restore_ms", ms)
		rec.ratio(cs, "vs_full", "x", ms, fullMs)
	}
	for _, deltas := range []int{4, 8, 16} {
		ch, err := e16Chain(mib, deltas)
		if !rec.check(err) {
			continue
		}
		for _, w := range []int{1, 4, 8} {
			point(fmt.Sprintf("deltas=%d workers=%d", deltas, w), ch.tgt, ch.objects, w)
		}
		if deltas == 16 {
			// Fold the deep chain server-side and re-measure: the restore
			// should land back on the full-image baseline.
			st, err := storage.CompactChain(ch.tgt, ch.objects, checkpoint.FoldEncodedChain, nil)
			if err == nil && st.Folded == "" {
				err = fmt.Errorf("e16: compaction folded nothing")
			}
			if rec.check(err) {
				point("deltas=16 folded workers=8", ch.tgt, []string{st.Folded}, 8)
			}
		}
	}
	e16Cluster(rec, quick)
	return rec.done()
}

// e16ChainResult is a built chain: the workload it captured, its
// target, every object name in chain order, and the leaf.
type e16ChainResult struct {
	prog    kernel.Program
	tgt     storage.Target
	objects []string
	leaf    string
}

// e16Chain captures one full image plus nDeltas incremental images of a
// sparse workload onto a remote target, advancing the process between
// captures so each delta carries a fresh dirty set. The write fraction
// models the checkpoint-interval dirty rate incremental shipping is for:
// a few percent of pages per interval — deltas that are small beside the
// full image, which is exactly when deep chains are worth keeping.
func e16Chain(mib, nDeltas int) (e16ChainResult, error) {
	prog := workload.Sparse{MiB: mib, WriteFrac: 0.02, Seed: 16}
	k := newMachine("e16", prog)
	p, err := k.Spawn(prog.Name())
	if err != nil {
		return e16ChainResult{}, err
	}
	workload.SetIterations(p, 1<<30)
	srv := storage.NewServer("e16-srv", costmodel.Default2005())
	res := e16ChainResult{prog: prog, tgt: storage.NewRemote("e16-net", srv)}

	trk := checkpoint.NewKernelWPTracker(k, p)
	if err := trk.Arm(); err != nil {
		return e16ChainResult{}, err
	}
	defer trk.Close()

	var parent string
	for seq := uint64(1); seq <= uint64(nDeltas+1); seq++ {
		// Fine-grained stepping: one workload iteration per checkpoint
		// interval, so each delta carries WriteFrac of the pages — the
		// small-delta regime incremental chains exist for.
		target := p.Regs().PC + 1
		for p.Regs().PC < target && p.State != proc.StateZombie {
			k.RunFor(10 * simtime.Microsecond)
		}
		k.Stop(p)
		img, _, err := checkpoint.Capture(checkpoint.Request{
			Acc: &checkpoint.KernelAccessor{K: k, P: p}, Trk: trk,
			Target: res.tgt, Env: storage.NopEnv(),
			Mechanism: "e16", Hostname: "e16", Seq: seq, Parent: parent, Now: k.Now(),
		})
		if err != nil {
			return e16ChainResult{}, err
		}
		parent = img.ObjectName()
		res.objects = append(res.objects, parent)
		k.Wake(p)
	}
	res.leaf = parent
	return res, nil
}

// e16RestoreLatency models one failover restore from the chain the
// manifest names: the storage time of a batched chain read plus the copy
// time of the pruned replay plan at the given width. Identical to the
// supervisor's restore.latency accounting, measured on a quiet target.
// The manifest may be stale after a fold (ancestors retired); reload it
// from the leaf like the supervisor's fallback walk would.
func e16RestoreLatency(tgt storage.Target, objects []string, workers int) (int, float64, error) {
	env, wait := waitEnv()
	chain, err := checkpoint.LoadChainManifest(tgt, env, objects)
	if err != nil {
		*wait = 0
		if chain, err = checkpoint.LoadChain(tgt, env, objects[len(objects)-1]); err != nil {
			return 0, 0, err
		}
	}
	lat := *wait
	if n, err := checkpoint.ReplayBytes(chain); err == nil {
		lat += checkpoint.RestoreCost(n, workers)
	}
	return len(chain), lat.Millis(), nil
}

// e16Cluster drives one autonomic job with incremental shipping,
// background compaction, and two scripted failures — the first right
// after the first server-side fold, so each restore replays a
// folded-or-short chain, the steady state compaction maintains — and
// records the failover-measured restore latency distribution.
func e16Cluster(rec *recorder, quick bool) {
	const compactAfter = 4
	c, sup := newJob(16, 0.1, clusterIters(quick), cluster.SupervisorConfig{
		Policy:       policy.Fixed(simtime.Millisecond),
		Incremental:  true,
		RebaseEvery:  64, // sparse rebases: compaction owns the chain bound
		CompactAfter: compactAfter,
		Pipeline:     &cluster.PipelineConfig{MaxInFlight: 4},
	})
	killTwice(c, sup, cluster.EvCompact, 1)
	err := sup.Run(10 * simtime.Second)

	cs := fmt.Sprintf("cluster compact=%d", compactAfter)
	rec.flag(cs, "completed", err == nil && sup.Completed)
	snap := sup.Metrics.Hist("restore.latency").Snapshot()
	rec.count(cs, "restores", int64(snap.N))
	rec.dist(cs, "restore_ms", "ms", snap)
	rec.count(cs, "folds", c.Counters.Get("compact.folds"))
	rec.count(cs, "folded_deltas", c.Counters.Get("compact.folded_deltas"))
	n, _, err := finalChain(c, sup)
	if rec.check(err) {
		rec.count(cs, "final_chain_len", int64(n))
	}
}
