package checkpoint

import (
	"testing"

	"repro/internal/simos/kernel"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// TestRegionExcludeDropsScratch drives the declarative region API end
// to end: a Regions-enabled workload declares its scratch VMA
// RegionExclude at Init, every capture (full and delta) drops the
// scratch payload, and the restored process still reaches the reference
// fingerprint — scratch is recomputable by contract.
func TestRegionExcludeDropsScratch(t *testing.T) {
	const iters = 10
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.3, Seed: 13, Regions: true}
	want := referenceRun(t, prog, iters)

	d := newStepDriver(t, "src", prog, iters)
	d.stepIters(3) // dirty both arena and scratch

	img, st, err := Capture(Request{
		Acc:       &KernelAccessor{K: d.k, P: d.p},
		Mechanism: "region-test",
		Hostname:  "src",
		Seq:       1,
		Now:       d.k.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ExcludedBytes == 0 {
		t.Fatal("full capture excluded nothing despite a RegionExclude scratch VMA")
	}
	for _, sec := range img.VMAs {
		if sec.Name == workload.ScratchName && len(sec.Extents) != 0 {
			t.Fatalf("scratch VMA captured %d extents, want 0", len(sec.Extents))
		}
	}

	// The exclusion applies to deltas too.
	trk := NewKernelWPTracker(d.k, d.p)
	if err := trk.Arm(); err != nil {
		t.Fatal(err)
	}
	defer trk.Close()
	if _, err := trk.Collect(); err != nil {
		t.Fatal(err)
	}
	d.stepIters(2)
	delta, dst, err := Capture(Request{
		Acc:       &KernelAccessor{K: d.k, P: d.p},
		Trk:       trk,
		Mechanism: "region-test",
		Hostname:  "src",
		Seq:       2,
		Parent:    img.ObjectName(),
		Now:       d.k.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if dst.ExcludedBytes == 0 {
		t.Fatal("delta capture excluded nothing; scratch is dirtied every step")
	}

	dstK := newMachine("dst", prog)
	p2, err := Restore(dstK, []*Image{img, delta}, RestoreOptions{Enqueue: true})
	if err != nil {
		t.Fatal(err)
	}
	if !dstK.RunUntilExit(p2, dstK.Now().Add(10*simtime.Minute)) {
		t.Fatal("restored process did not finish")
	}
	if got := workload.Fingerprint(p2); got != want {
		t.Fatalf("restored fingerprint %#x != reference %#x", got, want)
	}
}

// TestRegionProtectBlocksLivenessExclusion: the arena of a
// Regions-enabled workload is declared RegionProtect, so even a
// write-only access pattern — which the liveness tracker would
// otherwise classify dead — must keep shipping arena pages.
func TestRegionProtectBlocksLivenessExclusion(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.3, Seed: 13, Regions: true}
	d := newStepDriver(t, "src", prog, 1<<30)
	d.stepIters(1)
	trk := NewKernelLivenessTracker(d.k, d.p)
	if err := trk.Arm(); err != nil {
		t.Fatal(err)
	}
	defer trk.Close()
	if _, err := trk.Collect(); err != nil {
		t.Fatal(err)
	}
	arena := d.p.AS.FindByName(workload.ArenaName)
	for epoch := 0; epoch < 5; epoch++ {
		d.stepIters(1)
		if _, err := trk.Collect(); err != nil {
			t.Fatal(err)
		}
		for _, r := range trk.LastExcluded() {
			if r.Addr >= arena.Start && r.Addr < arena.End() {
				t.Fatalf("epoch %d: liveness excluded protected arena range %#x+%d",
					epoch, uint64(r.Addr), r.Length)
			}
		}
	}
}

// TestCheckpointRegionSyscall pins the kernel surface: declarations
// must be page-coherent and name mapped memory; clearing drops them.
func TestCheckpointRegionSyscall(t *testing.T) {
	prog := workload.Dense{MiB: 1}
	k := newMachine("k", prog)
	p, _ := k.Spawn(prog.Name())
	ctx := &kernel.Context{K: k, P: p, T: p.MainThread()}

	if err := ctx.CheckpointRegion(proc.CkptRegion{
		Start: workload.ArenaBase, Length: 2 * mem.PageSize, Policy: proc.RegionExclude,
	}); err != nil {
		t.Fatal(err)
	}
	if !p.RegionExcluded(workload.ArenaBase.Page()) {
		t.Fatal("declared page not reported excluded")
	}
	if p.RegionExcluded(workload.ArenaBase.Page() + 2) {
		t.Fatal("page past the region reported excluded")
	}

	if err := ctx.CheckpointRegion(proc.CkptRegion{Start: workload.ArenaBase, Length: 0}); err == nil {
		t.Fatal("zero-length region accepted")
	}
	if err := ctx.CheckpointRegion(proc.CkptRegion{Start: 0xdead0000, Length: mem.PageSize}); err == nil {
		t.Fatal("unmapped region accepted")
	}

	// Re-declaring the same start replaces the old policy.
	if err := ctx.CheckpointRegion(proc.CkptRegion{
		Start: workload.ArenaBase, Length: 2 * mem.PageSize, Policy: proc.RegionProtect,
	}); err != nil {
		t.Fatal(err)
	}
	if p.RegionExcluded(workload.ArenaBase.Page()) || !p.RegionProtected(workload.ArenaBase.Page()) {
		t.Fatal("re-declaration did not replace the region policy")
	}

	ctx.ClearCheckpointRegions()
	if p.RegionProtected(workload.ArenaBase.Page()) {
		t.Fatal("ClearCheckpointRegions left regions behind")
	}
}
