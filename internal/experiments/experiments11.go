package experiments

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/simtime"
)

// E19 measures lazy page-granular restore (restart-before-read):
// time-to-first-instruction versus the eager full restore of the same
// 16-delta chain across replay widths, with the fully drained memory
// checksummed against the eager restore's — the byte-equivalence claim.
// TTFI is the leaf read plus the hot-set replay; drained is the leaf
// plus the deferred ancestor reads plus the full plan replay. The
// cluster twins run the same scripted failover schedule eagerly and
// lazily and compare completion fingerprints plus the
// restore.first_instr_latency distribution.
func E19(quick bool) []Record {
	mib := 4
	if quick {
		mib = 2
	}
	rec := &recorder{exp: "E19"}
	if ch, err := e16Chain(mib, 16); rec.check(err) {
		for _, w := range []int{1, 4, 8} {
			rec.check(e19Compare(rec, ch, w))
		}
	}
	eager := e19Cluster(rec, quick, false)
	lazy := e19Cluster(rec, quick, true)
	rec.flag("twins", "fingerprints_match", eager.matches(lazy))
	return rec.done()
}

// e19Compare restores ch's chain both ways at one replay width: eagerly
// on one fresh machine, lazily (leaf only, then a full drain) on
// another, and checksums the two memory images against each other.
func e19Compare(rec *recorder, ch e16ChainResult, workers int) error {
	// Eager: batched chain read + full replay before control returns.
	env, eagerWait := waitEnv()
	chain, err := checkpoint.LoadChainManifest(ch.tgt, env, ch.objects)
	if err != nil {
		return err
	}
	ke := newMachine("e19-eager", ch.prog)
	pe, err := checkpoint.Restore(ke, chain, checkpoint.RestoreOptions{Parallelism: workers})
	if err != nil {
		return err
	}
	eagerLat := *eagerWait
	if n, err := checkpoint.ReplayBytes(chain); err == nil {
		eagerLat += checkpoint.RestoreCost(n, workers)
	}

	// Lazy: only the leaf is read before control returns.
	lenv, leafWait := waitEnv()
	blob, err := ch.tgt.ReadObject(ch.leaf, lenv)
	if err != nil {
		return err
	}
	leaf, err := checkpoint.Decode(blob)
	if err != nil {
		return err
	}
	kl := newMachine("e19-lazy", ch.prog)
	pl, sess, err := checkpoint.LazyRestore(kl, leaf, checkpoint.LazyOptions{
		RestoreOptions: checkpoint.RestoreOptions{Parallelism: workers},
		Source:         ch.tgt,
		Ancestors:      ch.objects[:len(ch.objects)-1],
	})
	if err != nil {
		return err
	}
	hot := sess.Stats()
	ttfi := (*leafWait + checkpoint.RestoreCost(hot.HotBytes, workers)).Millis()
	err = sess.DrainAll()
	st := sess.Stats()
	sess.Close()
	if err != nil {
		return err
	}

	cs := fmt.Sprintf("workers=%d", workers)
	rec.ms(cs, "eager_ms", eagerLat.Millis())
	rec.ms(cs, "ttfi_ms", ttfi)
	rec.ratio(cs, "ttfi_vs_eager", "x", ttfi, eagerLat.Millis())
	rec.ms(cs, "drained_ms", (*leafWait + st.PlanWait + checkpoint.RestoreCost(st.PlanBytes, workers)).Millis())
	rec.count(cs, "hot_pages", int64(hot.HotPages))
	rec.add(cs, "plan_bytes", "B", 1, float64(st.PlanBytes))
	rec.flag(cs, "digest_match", pl.AS.Checksum() == pe.AS.Checksum())
	return nil
}

// e19Cluster drives one autonomic job with incremental shipping and two
// scripted transient failures once a few checkpoints have acked — the
// same schedule either way — and records the failover restore
// telemetry. With lazy set, failover takes the restart-before-read path
// and the run must still complete with the same workload fingerprint as
// the eager twin.
func e19Cluster(rec *recorder, quick, lazy bool) twin {
	c, sup := newJob(19, 0.1, clusterIters(quick), cluster.SupervisorConfig{
		Policy:      policy.Fixed(simtime.Millisecond),
		Incremental: true,
		RebaseEvery: 8,
		LazyRestore: lazy,
	})
	killTwice(c, sup, cluster.EvAck, 3)
	err := sup.Run(10 * simtime.Second)

	cs := "cluster eager"
	if lazy {
		cs = "cluster lazy"
	}
	run := twin{completed: err == nil && sup.Completed, fingerprint: sup.Fingerprint}
	rec.flag(cs, "completed", run.completed)
	lat := sup.Metrics.Hist("restore.latency").Snapshot()
	rec.count(cs, "restores", int64(lat.N))
	rec.dist(cs, "restore_ms", "ms", lat)
	rec.count(cs, "lazy_restores", c.Counters.Get("restore.lazy"))
	rec.count(cs, "faults_served", c.Counters.Get("restore.fault_served"))
	rec.count(cs, "prefetched", c.Counters.Get("restore.prefetched"))
	if lazy {
		rec.dist(cs, "first_instr_ms", "ms", sup.Metrics.Hist("restore.first_instr_latency").Snapshot())
	}
	return run
}
