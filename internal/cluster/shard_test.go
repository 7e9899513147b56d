package cluster

import (
	"fmt"
	"testing"

	"repro/internal/detector"
	"repro/internal/simtime"
)

// objName's strconv layout is byte-identical to the fmt format it
// replaced, including ghost sequence numbers past 1<<20, values wider
// than the six-digit padding, and negative values.
func TestObjNameMatchesSprintf(t *testing.T) {
	sh := &shardSup{prefix: "s007/"}
	for _, job := range []int{0, 1, 42, 99999, 999999, 1000000, 1234567, -1, -99999, -100000} {
		for _, epoch := range []uint64{0, 1, 17, 1 << 32, 1<<64 - 1} {
			for _, seq := range []int{0, 1, 999999, 1000000, 1 << 20, 1<<20 + 1, 1<<20 + 987654, -5} {
				want := fmt.Sprintf("%sj%06d/e%d-%06d", sh.prefix, job, epoch, seq)
				if got := sh.objName(job, epoch, seq); got != want {
					t.Fatalf("objName(%d, %d, %d) = %q, want %q", job, epoch, seq, got, want)
				}
			}
		}
	}
}

// Digests are recycled through a per-shard free list, so ownership must
// be exclusive: under heavy duplication, loss and reordering jitter, no
// two in-flight entries share a digest, no in-flight digest sits on the
// free list, a duplicate carries its original's bitmap, and every free
// digest is cleared.
func TestRecycledDigestsNeverAlias(t *testing.T) {
	cfg := fleetCfg(64, 4, 16, 21)
	cfg.DigestDup, cfg.DigestLoss, cfg.HBLoss = 0.5, 0.2, 0.1
	cfg.DigestJitter = 3 * simtime.Millisecond
	r := MustNewRootSupervisor(cfg)
	if err := r.FailAt(10*simtime.Millisecond, 5, false, 20*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	dups := 0
	for tick := 0; tick < 200; tick++ {
		// One barrier cycle of Run, with the shard ticks driven inline.
		now := r.f.now.Add(r.cfg.Tick)
		r.f.now = now
		for _, sh := range r.shards {
			sh.runTick(now)
		}
		r.barrier(now)

		for _, sh := range r.shards {
			owner := make(map[*detector.Digest]string)
			bySeq := make(map[uint64]*detector.Digest)
			for i, in := range sh.inflight {
				if prev, ok := owner[in.d]; ok {
					t.Fatalf("tick %d shard %d: in-flight entry %d shares its digest with %s", tick, sh.id, i, prev)
				}
				owner[in.d] = fmt.Sprintf("in-flight entry %d", i)
				if orig, ok := bySeq[in.d.Seq]; ok {
					dups++
					if fmt.Sprint(orig.Present) != fmt.Sprint(in.d.Present) {
						t.Fatalf("tick %d shard %d: duplicate of seq %d carries bitmap %v, original %v",
							tick, sh.id, in.d.Seq, in.d.Present, orig.Present)
					}
				}
				bySeq[in.d.Seq] = in.d
			}
			for _, d := range sh.free {
				if prev, ok := owner[d]; ok {
					t.Fatalf("tick %d shard %d: free digest is also %s", tick, sh.id, prev)
				}
				owner[d] = "free"
				if d.Count() != 0 {
					t.Fatalf("tick %d shard %d: free digest still has %d members present", tick, sh.id, d.Count())
				}
				for _, at := range d.LastSent {
					if at != 0 {
						t.Fatalf("tick %d shard %d: free digest keeps a send time", tick, sh.id)
					}
				}
			}
		}
	}
	if dups == 0 {
		t.Fatal("no duplicated digest was ever in flight beside its original")
	}
}
