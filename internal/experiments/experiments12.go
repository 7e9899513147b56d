package experiments

import (
	"fmt"
	"hash/fnv"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/simos/kernel"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// E20 measures what the policy layer buys: the Young/Daly cadence
// engine against a fixed-interval twin on the same random fault
// schedule (work lost to failures, §4's dominant cost term), and the
// liveness content policy against a plain write-protect tracker on a
// twin delta chain (bytes shipped, with the restored live state proved
// byte-identical).
func E20(quick bool) []Record {
	rec := &recorder{exp: "E20"}
	fixed, fixedLost := e20Cluster(rec, quick, policy.Fixed(12*simtime.Millisecond))
	yd, ydLost := e20Cluster(rec, quick, policy.YoungDaly(12*simtime.Millisecond))
	const cs = "youngdaly vs fixed"
	rec.ratio(cs, "work_lost_ratio", "x", ydLost, fixedLost)
	rec.flag(cs, "fingerprints_match", fixed.matches(yd))
	rec.check(e20Liveness(rec, quick))
	return rec.done()
}

// e20Cluster drives one autonomic job under the given cadence policy
// with a seeded random failure injector. The injector's schedule is a
// function of its own RNG and the simulated clock only, so the fixed
// and youngdaly twins face the same fault arrivals; what differs is how
// much work each cadence abandons per failure, returned in ms.
func e20Cluster(rec *recorder, quick bool, spec policy.Spec) (twin, float64) {
	c, sup := newJob(20, 0.1, clusterIters(quick), cluster.SupervisorConfig{
		Policy:      spec,
		Incremental: true,
		RebaseEvery: 8,
	})
	// Transient failures on the three worker nodes, mean gap 10ms per
	// node against the fixed 12ms cadence: long enough that the fixed
	// twin still completes, short enough that Young's optimum (roughly
	// sqrt(2*cost*MTBF)) sits well below the base interval.
	c.SetInjector(cluster.NewInjector(cluster.Exponential{Mean: 10 * simtime.Millisecond},
		simtime.Millisecond, 20, 3))
	err := sup.Run(20 * simtime.Second)

	cs := string(sup.Policy.Spec().Strategy)
	lost := sup.Metrics.Hist("policy.work_lost").Snapshot()
	run := twin{completed: err == nil && sup.Completed, fingerprint: sup.Fingerprint}
	workLostMs := lost.Mean * float64(lost.N)
	rec.flag(cs, "completed", run.completed)
	rec.count(cs, "checkpoints", int64(sup.Checkpoints))
	rec.count(cs, "restarts", int64(sup.Restarts))
	rec.count(cs, "failures", int64(lost.N))
	rec.add(cs, "work_lost_ms", "ms", lost.N, workLostMs)
	rec.count(cs, "recomputes", int64(sup.Policy.Recomputes()))
	rec.ms(cs, "final_interval_ms", sup.Policy.Interval().Millis())
	return run, workLostMs
}

// e20Driver steps a workload by direct program calls so the filtered
// and baseline twins see byte-identical access sequences.
type e20Driver struct {
	prog kernel.Program
	k    *kernel.Kernel
	p    *proc.Process
	ctx  *kernel.Context
}

func e20NewDriver(name string, prog kernel.Program, iters uint64) (*e20Driver, error) {
	k := newMachine(name, prog)
	p, err := k.Spawn(prog.Name())
	if err != nil {
		return nil, err
	}
	workload.SetIterations(p, iters)
	return &e20Driver{prog: prog, k: k, p: p,
		ctx: &kernel.Context{K: k, P: p, T: p.MainThread()}}, nil
}

func (d *e20Driver) step(n uint64) error {
	target := d.p.Regs().PC + n
	for d.p.Regs().PC < target && d.p.State != proc.StateZombie {
		if _, err := d.prog.Step(d.ctx); err != nil {
			return err
		}
	}
	if d.p.State == proc.StateZombie {
		return fmt.Errorf("e20: workload finished mid-epoch")
	}
	return nil
}

func (d *e20Driver) capture(trk checkpoint.Tracker, seq uint64, parent string) (*checkpoint.Image, error) {
	img, _, err := checkpoint.Capture(checkpoint.Request{
		Acc:       &checkpoint.KernelAccessor{K: d.k, P: d.p},
		Trk:       trk,
		Mechanism: "e20",
		Hostname:  "e20",
		Seq:       seq,
		Parent:    parent,
		Now:       d.k.Now(),
	})
	return img, err
}

// e20Liveness captures twin delta chains of the same stepped workload —
// one through the liveness tracker, one through the plain write-protect
// tracker — then restores both and proves every page the liveness
// tracker did not explicitly declare dead is byte-identical between the
// restores, and that both restored processes still run to the reference
// fingerprint.
func e20Liveness(rec *recorder, quick bool) error {
	mib := 2
	if quick {
		mib = 1
	}
	const iters = 14
	const baseAt = 2
	const epochs = 5
	prog := workload.Sparse{MiB: mib, WriteFrac: 0.3, Seed: 21}
	const cs = "liveness"

	// Undisturbed reference fingerprint.
	kr := newMachine("e20-ref", prog)
	pr, err := kr.Spawn(prog.Name())
	if err != nil {
		return err
	}
	workload.SetIterations(pr, iters)
	if !kr.RunUntilExit(pr, kr.Now().Add(10*simtime.Minute)) {
		return fmt.Errorf("e20: reference run did not exit")
	}
	want := workload.Fingerprint(pr)

	df, err := e20NewDriver("e20-flt", prog, iters)
	if err != nil {
		return err
	}
	db, err := e20NewDriver("e20-all", prog, iters)
	if err != nil {
		return err
	}
	if err := df.step(baseAt); err != nil {
		return err
	}
	if err := db.step(baseAt); err != nil {
		return err
	}
	ftrk := checkpoint.NewKernelLivenessTracker(df.k, df.p, checkpoint.DefaultDeadStreak)
	btrk := checkpoint.NewKernelWPTracker(db.k, db.p)
	if err := ftrk.Arm(); err != nil {
		return err
	}
	defer ftrk.Close()
	if err := btrk.Arm(); err != nil {
		return err
	}
	defer btrk.Close()

	fimg, err := df.capture(ftrk, 1, "")
	if err != nil {
		return err
	}
	bimg, err := db.capture(btrk, 1, "")
	if err != nil {
		return err
	}
	fchain, bchain := []*checkpoint.Image{fimg}, []*checkpoint.Image{bimg}
	excluded := make(map[mem.PageNum]bool)
	for e := 0; e < epochs; e++ {
		if err := df.step(1); err != nil {
			return err
		}
		if err := db.step(1); err != nil {
			return err
		}
		if fimg, err = df.capture(ftrk, uint64(e+2), fchain[len(fchain)-1].ObjectName()); err != nil {
			return err
		}
		if bimg, err = db.capture(btrk, uint64(e+2), bchain[len(bchain)-1].ObjectName()); err != nil {
			return err
		}
		fchain, bchain = append(fchain, fimg), append(bchain, bimg)
		for _, r := range ftrk.LastExcluded() {
			for a := r.Addr; a < r.Addr+mem.Addr(r.Length); a += mem.PageSize {
				excluded[a.Page()] = true
			}
		}
	}
	var filtered, baseline int
	for i := range fchain {
		filtered += fchain[i].PayloadBytes()
		baseline += bchain[i].PayloadBytes()
	}
	rec.add(cs, "filtered_bytes", "B", 1, float64(filtered))
	rec.add(cs, "baseline_bytes", "B", 1, float64(baseline))
	rec.ratio(cs, "bytes_ratio", "x", float64(filtered), float64(baseline))
	rec.add(cs, "excluded_bytes", "B", 1, float64(ftrk.Stats().ExcludedBytes))

	mf := newMachine("e20-dst-flt", prog)
	pf, err := checkpoint.Restore(mf, fchain, checkpoint.RestoreOptions{Enqueue: true})
	if err != nil {
		return err
	}
	mb := newMachine("e20-dst-all", prog)
	pb, err := checkpoint.Restore(mb, bchain, checkpoint.RestoreOptions{Enqueue: true})
	if err != nil {
		return err
	}
	fdigest, err := e20LiveDigest(pf, excluded)
	if err != nil {
		return err
	}
	bdigest, err := e20LiveDigest(pb, excluded)
	if err != nil {
		return err
	}
	rec.flag(cs, "live_digest_match", fdigest == bdigest)

	if !mf.RunUntilExit(pf, mf.Now().Add(10*simtime.Minute)) ||
		!mb.RunUntilExit(pb, mb.Now().Add(10*simtime.Minute)) {
		return fmt.Errorf("e20: restored runs did not exit")
	}
	rec.flag(cs, "fingerprints_match", workload.Fingerprint(pf) == want && workload.Fingerprint(pb) == want)
	return nil
}

// e20LiveDigest hashes every arena page outside the declared-dead set.
func e20LiveDigest(p *proc.Process, excluded map[mem.PageNum]bool) (uint64, error) {
	arena := p.AS.FindByName(workload.ArenaName)
	if arena == nil {
		return 0, fmt.Errorf("e20: restored process has no arena")
	}
	h := fnv.New64a()
	buf := make([]byte, mem.PageSize)
	for off := uint64(0); off < arena.Length; off += mem.PageSize {
		addr := arena.Start + mem.Addr(off)
		if excluded[addr.Page()] {
			continue
		}
		if err := p.AS.ReadDirect(addr, buf); err != nil {
			return 0, err
		}
		h.Write(buf)
	}
	return h.Sum64(), nil
}
