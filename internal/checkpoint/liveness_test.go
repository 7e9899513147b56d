package checkpoint

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/simos/kernel"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// stepDriver drives a workload by direct Step calls so twin runs see
// byte-identical access sequences between collections (the clock plays
// no role in what is written when).
type stepDriver struct {
	t    *testing.T
	prog kernel.Program
	k    *kernel.Kernel
	p    *proc.Process
	ctx  *kernel.Context
}

func newStepDriver(t *testing.T, name string, prog kernel.Program, iters uint64) *stepDriver {
	t.Helper()
	k := newMachine(name, prog)
	p, err := k.Spawn(prog.Name())
	if err != nil {
		t.Fatal(err)
	}
	workload.SetIterations(p, iters)
	return &stepDriver{t: t, prog: prog, k: k, p: p,
		ctx: &kernel.Context{K: k, P: p, T: p.MainThread()}}
}

func (d *stepDriver) stepIters(n uint64) {
	d.t.Helper()
	target := d.p.Regs().PC + n
	for d.p.Regs().PC < target && d.p.State != proc.StateZombie {
		if _, err := d.prog.Step(d.ctx); err != nil {
			d.t.Fatal(err)
		}
	}
	if d.p.State == proc.StateZombie {
		d.t.Fatal("workload finished mid-epoch")
	}
}

// captureEpoch takes one capture through trk and returns the image.
func (d *stepDriver) captureEpoch(trk Tracker, seq uint64, parent string, workers int) *Image {
	d.t.Helper()
	img, _, err := Capture(Request{
		Acc:         &KernelAccessor{K: d.k, P: d.p},
		Trk:         trk,
		Mechanism:   "liveness-test",
		Hostname:    "src",
		Seq:         seq,
		Parent:      parent,
		Now:         d.k.Now(),
		Parallelism: workers,
	})
	if err != nil {
		d.t.Fatal(err)
	}
	return img
}

func pageSetOf(rs []Range) map[mem.PageNum]bool {
	s := make(map[mem.PageNum]bool)
	for _, r := range rs {
		for a := r.Addr; a < r.Addr+mem.Addr(r.Length); a += mem.PageSize {
			s[a.Page()] = true
		}
	}
	return s
}

// TestLivenessTrackerExcludesDeadPages: a write-only workload (Sparse
// never reads its arena) is the canonical dead-page regime — after the
// dead streak matures, overwritten-before-read pages leave the delta.
func TestLivenessTrackerExcludesDeadPages(t *testing.T) {
	run := func(live bool) (deltaBytes int, excluded uint64) {
		d := newStepDriver(t, "src", workload.Sparse{MiB: 2, WriteFrac: 0.3, Seed: 21}, 1<<30)
		d.stepIters(1)
		var trk Tracker
		if live {
			trk = NewKernelLivenessTracker(d.k, d.p)
		} else {
			trk = NewKernelWPTracker(d.k, d.p)
		}
		if err := trk.Arm(); err != nil {
			t.Fatal(err)
		}
		defer trk.Close()
		if _, err := trk.Collect(); err != nil { // discard the full epoch
			t.Fatal(err)
		}
		for epoch := 0; epoch < 5; epoch++ {
			d.stepIters(1)
			rs, err := trk.Collect()
			if err != nil {
				t.Fatal(err)
			}
			deltaBytes += rangeBytes(rs)
		}
		return deltaBytes, trk.Stats().ExcludedBytes
	}
	liveBytes, excluded := run(true)
	allBytes, baseExcluded := run(false)
	if baseExcluded != 0 {
		t.Fatalf("plain WP tracker reported %d excluded bytes", baseExcluded)
	}
	if excluded == 0 {
		t.Fatal("liveness tracker excluded nothing on a write-only workload")
	}
	if liveBytes >= allBytes {
		t.Fatalf("liveness deltas %d bytes not below tracker baseline %d", liveBytes, allBytes)
	}
	t.Logf("delta bytes: liveness %d vs baseline %d (excluded %d)", liveBytes, allBytes, excluded)
}

// TestLivenessTrackerProtectsAlternatingReads: the stencil reads one
// grid while writing the other, so every page alternates written-then-
// read across epochs. With the default dead streak of 2 no page may
// ever be excluded — an exclusion here would corrupt the next epoch's
// reads after a restore.
func TestLivenessTrackerProtectsAlternatingReads(t *testing.T) {
	d := newStepDriver(t, "src", workload.Stencil{MiB: 2}, 1<<30)
	d.stepIters(2) // populate both grids
	trk := NewKernelLivenessTracker(d.k, d.p)
	if err := trk.Arm(); err != nil {
		t.Fatal(err)
	}
	defer trk.Close()
	if _, err := trk.Collect(); err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 6; epoch++ {
		d.stepIters(1)
		if _, err := trk.Collect(); err != nil {
			t.Fatal(err)
		}
		if ex := trk.LastExcluded(); len(ex) != 0 {
			t.Fatalf("epoch %d excluded %d ranges from an alternating-read workload", epoch, len(ex))
		}
	}
	if got := trk.Stats().ExcludedBytes; got != 0 {
		t.Fatalf("ExcludedBytes = %d on stencil, want 0", got)
	}
}

// TestLivenessRestoreEquivalenceTable is the correctness table the
// content policy stands on: for every tracker kind × capture
// parallelism × workload, a delta chain captured with liveness
// exclusion must restore the live state byte-identically to the
// exclusion-free chain captured from an identical twin run — only
// pages the tracker explicitly declared dead may differ — and the
// restored process must run to the same fingerprint as an undisturbed
// reference.
func TestLivenessRestoreEquivalenceTable(t *testing.T) {
	const iters = 14
	const baseAt = 2
	const epochs = 5

	workloads := []kernel.Program{
		workload.Sparse{MiB: 2, WriteFrac: 0.3, Seed: 9},
		workload.Stencil{MiB: 2},
		workload.Phased{MiB: 1, Seed: 4},
	}
	kinds := []string{"kernel", "user"}
	widths := []int{1, 4}

	for _, prog := range workloads {
		want := referenceRun(t, prog, iters)
		for _, kind := range kinds {
			for _, width := range widths {
				name := fmt.Sprintf("%s/%s/w%d", prog.Name(), kind, width)
				t.Run(name, func(t *testing.T) {
					// Filtered run: liveness tracker.
					df := newStepDriver(t, "flt", prog, iters)
					df.stepIters(baseAt)
					var ftrk Tracker
					var lv *LivenessTracker
					if kind == "kernel" {
						lv = NewKernelLivenessTracker(df.k, df.p)
					} else {
						lv = NewUserLivenessTracker(df.ctx)
					}
					ftrk = lv
					if err := ftrk.Arm(); err != nil {
						t.Fatal(err)
					}
					defer ftrk.Close()

					// Baseline twin: identical schedule, plain WP tracker.
					db := newStepDriver(t, "all", prog, iters)
					db.stepIters(baseAt)
					btrk := NewKernelWPTracker(db.k, db.p)
					if err := btrk.Arm(); err != nil {
						t.Fatal(err)
					}
					defer btrk.Close()

					fchain := []*Image{df.captureEpoch(ftrk, 1, "", width)}
					bchain := []*Image{db.captureEpoch(btrk, 1, "", width)}
					excludedEver := make(map[mem.PageNum]bool)
					for e := 0; e < epochs; e++ {
						df.stepIters(1)
						db.stepIters(1)
						fchain = append(fchain, df.captureEpoch(ftrk, uint64(e+2), fchain[len(fchain)-1].ObjectName(), width))
						bchain = append(bchain, db.captureEpoch(btrk, uint64(e+2), bchain[len(bchain)-1].ObjectName(), width))
						for pn := range pageSetOf(lv.LastExcluded()) {
							excludedEver[pn] = true
						}
					}

					// Restore both chains on fresh machines.
					mf := newMachine("dst-flt", prog)
					pf, err := Restore(mf, fchain, RestoreOptions{Enqueue: true})
					if err != nil {
						t.Fatal(err)
					}
					mb := newMachine("dst-all", prog)
					pb, err := Restore(mb, bchain, RestoreOptions{Enqueue: true})
					if err != nil {
						t.Fatal(err)
					}

					// Live state byte-identity: every arena page outside the
					// declared-dead set must match the exclusion-free restore.
					arena := pf.AS.FindByName(workload.ArenaName)
					if arena == nil {
						t.Fatal("restored process has no arena")
					}
					bufF := make([]byte, mem.PageSize)
					bufB := make([]byte, mem.PageSize)
					diffs := 0
					for off := uint64(0); off < arena.Length; off += mem.PageSize {
						addr := arena.Start + mem.Addr(off)
						if excludedEver[addr.Page()] {
							continue
						}
						if err := pf.AS.ReadDirect(addr, bufF); err != nil {
							t.Fatal(err)
						}
						if err := pb.AS.ReadDirect(addr, bufB); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(bufF, bufB) {
							diffs++
						}
					}
					if diffs != 0 {
						t.Fatalf("%d live pages differ between liveness and exclusion-free restores", diffs)
					}

					// Payload discipline: the filtered chain never ships more
					// than the baseline.
					fb, bb := 0, 0
					for _, img := range fchain {
						fb += img.PayloadBytes()
					}
					for _, img := range bchain {
						bb += img.PayloadBytes()
					}
					if fb > bb {
						t.Fatalf("liveness chain %d bytes exceeds baseline %d", fb, bb)
					}

					// End-to-end: both restores must finish with the
					// reference fingerprint (dead pages are overwritten
					// before any read, so stale restored content is
					// unobservable by construction).
					if !mf.RunUntilExit(pf, mf.Now().Add(10*simtime.Minute)) {
						t.Fatal("liveness restore did not finish")
					}
					if !mb.RunUntilExit(pb, mb.Now().Add(10*simtime.Minute)) {
						t.Fatal("baseline restore did not finish")
					}
					if got := workload.Fingerprint(pf); got != want {
						t.Fatalf("liveness restore fingerprint %#x != reference %#x", got, want)
					}
					if got := workload.Fingerprint(pb); got != want {
						t.Fatalf("baseline restore fingerprint %#x != reference %#x", got, want)
					}
				})
			}
		}
	}
}
