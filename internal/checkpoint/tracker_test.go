package checkpoint

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/simos/kernel"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// advanceIters runs p until its PC advances by n iterations.
func advanceIters(t *testing.T, k *kernel.Kernel, p *proc.Process, n uint64) {
	t.Helper()
	target := p.Regs().PC + n
	for p.Regs().PC < target && p.State != proc.StateZombie {
		k.RunFor(simtime.Millisecond)
	}
	if p.State == proc.StateZombie {
		t.Fatal("workload finished during tracking epoch")
	}
}

func rangeBytes(rs []Range) int {
	n := 0
	for _, r := range rs {
		n += r.Length
	}
	return n
}

func TestKernelWPTrackerTracksExactDelta(t *testing.T) {
	prog := workload.Stencil{MiB: 2}
	k := newMachine("k", prog)
	p, _ := k.Spawn(prog.Name())
	workload.SetIterations(p, 100)
	advanceIters(t, k, p, 2) // populate both grids

	trk := NewKernelWPTracker(k, p)
	if err := trk.Arm(); err != nil {
		t.Fatal(err)
	}
	defer trk.Close()
	// First collect = everything resident.
	first, err := trk.Collect()
	if err != nil {
		t.Fatal(err)
	}
	arena := p.AS.FindByName(workload.ArenaName)
	if rangeBytes(first) < arena.NumPages()*mem.PageSize {
		t.Fatalf("first collect %d bytes, want ≥ arena %d", rangeBytes(first), arena.NumPages()*mem.PageSize)
	}

	// One stencil iteration dirties exactly one grid (half the arena).
	advanceIters(t, k, p, 1)
	k.Stop(p)
	delta, err := trk.Collect()
	if err != nil {
		t.Fatal(err)
	}
	half := arena.NumPages() / 2 * mem.PageSize
	got := rangeBytes(delta)
	if got < half-2*mem.PageSize || got > half+2*mem.PageSize {
		t.Fatalf("delta %d bytes, want ≈ half arena %d", got, half)
	}
	if trk.Stats().Faults == 0 {
		t.Fatal("no tracking faults recorded")
	}
}

func TestUserWPTrackerMatchesKernelPagesButCostsMore(t *testing.T) {
	// Drive the workload by direct Step calls so both runs see byte-
	// identical write sequences between collections.
	run := func(useUser bool) (pages int, overhead simtime.Duration, syscalls uint64) {
		prog := workload.Sparse{MiB: 2, WriteFrac: 0.1, Seed: 7}
		k := newMachine("k", prog)
		p, _ := k.Spawn(prog.Name())
		workload.SetIterations(p, 100)
		ctx := &kernel.Context{K: k, P: p, T: p.MainThread()}
		stepIters := func(n uint64) {
			target := p.Regs().PC + n
			for p.Regs().PC < target {
				if _, err := prog.Step(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
		stepIters(1)

		var trk Tracker
		if useUser {
			trk = NewUserWPTracker(ctx)
		} else {
			trk = NewKernelWPTracker(k, p)
		}
		if err := trk.Arm(); err != nil {
			t.Fatal(err)
		}
		defer trk.Close()
		if _, err := trk.Collect(); err != nil { // discard the full epoch
			t.Fatal(err)
		}
		sys0 := k.SyscallCount
		stepIters(1)
		rs, err := trk.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return rangeBytes(rs) / mem.PageSize, trk.Stats().RuntimeOverhead, k.SyscallCount - sys0
	}
	kPages, kOver, kSys := run(false)
	uPages, uOver, uSys := run(true)
	if kPages != uPages {
		t.Fatalf("page sets differ: kernel %d vs user %d", kPages, uPages)
	}
	if uOver <= kOver {
		t.Fatalf("user tracking overhead %v should exceed kernel %v", uOver, kOver)
	}
	if uSys <= kSys {
		t.Fatalf("user tracker syscalls %d should exceed kernel %d", uSys, kSys)
	}
}

func TestHashTrackerFindsSubPageChanges(t *testing.T) {
	prog := workload.Dense{MiB: 1}
	k := newMachine("k", prog)
	p, _ := k.Spawn(prog.Name())
	workload.SetIterations(p, 100)
	advanceIters(t, k, p, 1)
	k.Stop(p)

	acc := &KernelAccessor{K: k, P: p}
	led := costmodel.NewLedger()
	trk, err := NewHashTracker(acc, led, k.CM, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer trk.Close()
	if err := trk.Arm(); err != nil {
		t.Fatal(err)
	}

	// Modify 10 bytes in one page directly: a page tracker would report
	// 4096 bytes; the 256-byte hash tracker must report exactly one block.
	if err := p.AS.WriteDirect(workload.ArenaBase+100, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	rs, err := trk.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Length != 256 {
		t.Fatalf("ranges = %+v, want one 256-byte block", rs)
	}
	if rs[0].Addr != workload.ArenaBase {
		t.Fatalf("block addr %#x", uint64(rs[0].Addr))
	}
	if trk.Stats().HashedBytes == 0 || led.Total == 0 {
		t.Fatal("hash cost not accounted")
	}
	// No change since: next collect is empty.
	rs, _ = trk.Collect()
	if len(rs) != 0 {
		t.Fatalf("idle collect returned %v", rs)
	}
}

func TestHashTrackerRejectsBadBlockSize(t *testing.T) {
	prog := workload.Dense{MiB: 1}
	k := newMachine("k", prog)
	p, _ := k.Spawn(prog.Name())
	acc := &KernelAccessor{K: k, P: p}
	for _, bs := range []int{0, -8, 100, 8192} {
		if _, err := NewHashTracker(acc, costmodel.Discard{}, k.CM, bs, 64); err == nil {
			t.Fatalf("block size %d accepted", bs)
		}
	}
}

func TestHashTrackerMissProbability(t *testing.T) {
	prog := workload.Dense{MiB: 1}
	k := newMachine("k", prog)
	p, _ := k.Spawn(prog.Name())
	acc := &KernelAccessor{K: k, P: p}
	trk, _ := NewHashTracker(acc, costmodel.Discard{}, k.CM, 1024, 16)
	if p0 := trk.MissProbability(0); p0 != 0 {
		t.Fatalf("MissProbability(0) = %v", p0)
	}
	p1 := trk.MissProbability(1)
	if p1 <= 0 || p1 >= 1e-3 {
		t.Fatalf("MissProbability(1) with 16 bits = %v, want ≈2^-16", p1)
	}
	if trk.MissProbability(1000) <= p1 {
		t.Fatal("miss probability not increasing in block count")
	}
	trk64, _ := NewHashTracker(acc, costmodel.Discard{}, k.CM, 1024, 64)
	if trk64.MissProbability(1) >= p1 {
		t.Fatal("wider hash should miss less")
	}
}

// Every candidate block size is checked up front, not only the one the
// adaptive tracker starts at, and the caller's slice is left as given.
func TestAdaptiveTrackerRejectsBadCandidates(t *testing.T) {
	prog := workload.Dense{MiB: 1}
	k := newMachine("k", prog)
	p, _ := k.Spawn(prog.Name())
	acc := &KernelAccessor{K: k, P: p}
	for _, sizes := range [][]int{{100, 4096}, {0, 1024}, {512, 8192}} {
		if _, err := NewAdaptiveTracker(acc, costmodel.Discard{}, k.CM, sizes); err == nil {
			t.Fatalf("sizes %v accepted", sizes)
		}
	}
	sizes := []int{4096, 256, 1024}
	trk, err := NewAdaptiveTracker(acc, costmodel.Discard{}, k.CM, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if trk.Granularity() != 4096 {
		t.Fatalf("adaptive tracker starts at %d, want the largest size 4096", trk.Granularity())
	}
	if sizes[0] != 4096 || sizes[1] != 256 || sizes[2] != 1024 {
		t.Fatalf("caller's sizes reordered to %v", sizes)
	}
}

// failingAccessor refuses every memory read once fail is set.
type failingAccessor struct {
	*KernelAccessor
	fail bool
}

func (a *failingAccessor) ReadRange(addr mem.Addr, buf []byte) error {
	if a.fail {
		return &mem.Fault{Addr: addr, Access: mem.AccessRead}
	}
	return a.KernelAccessor.ReadRange(addr, buf)
}

// A block the hash tracker cannot read fails the collection instead of
// dropping out of the delta unseen.
func TestHashTrackerReportsUnreadableBlock(t *testing.T) {
	prog := workload.Dense{MiB: 1}
	k := newMachine("k", prog)
	p, _ := k.Spawn(prog.Name())
	workload.SetIterations(p, 100)
	advanceIters(t, k, p, 1)
	k.Stop(p)

	acc := &failingAccessor{KernelAccessor: &KernelAccessor{K: k, P: p}}
	trk, err := NewHashTracker(acc, costmodel.Discard{}, k.CM, 1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer trk.Close()
	if err := trk.Arm(); err != nil {
		t.Fatal(err)
	}
	acc.fail = true
	if rs, err := trk.Collect(); err == nil {
		t.Fatalf("Collect over unreadable blocks = %v, nil; want an error", rs)
	}
}

func TestAdaptiveTrackerShrinksBlocksForSparseWrites(t *testing.T) {
	prog := workload.PointerChase{MiB: 2, WriteEvery: 32, Seed: 5}
	k := newMachine("k", prog)
	p, _ := k.Spawn(prog.Name())
	workload.SetIterations(p, 1<<40)
	advanceIters(t, k, p, 2048)
	k.Stop(p)

	acc := &KernelAccessor{K: k, P: p}
	trk, err := NewAdaptiveTracker(acc, costmodel.Discard{}, k.CM, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer trk.Close()
	if err := trk.Arm(); err != nil {
		t.Fatal(err)
	}
	startSize := trk.Granularity()

	k.Wake(p)
	for epoch := 0; epoch < 4; epoch++ {
		advanceIters(t, k, p, 1024)
		k.Stop(p)
		if _, err := trk.Collect(); err != nil {
			t.Fatal(err)
		}
		k.Wake(p)
	}
	if trk.Granularity() >= startSize {
		t.Fatalf("adaptive block size %d did not shrink from %d for sparse writes", trk.Granularity(), startSize)
	}
}

func TestAdaptiveTrackerKeepsCoarseBlocksForDenseWrites(t *testing.T) {
	prog := workload.Dense{MiB: 2}
	k := newMachine("k", prog)
	p, _ := k.Spawn(prog.Name())
	workload.SetIterations(p, 1<<30)
	advanceIters(t, k, p, 1)
	k.Stop(p)

	acc := &KernelAccessor{K: k, P: p}
	trk, _ := NewAdaptiveTracker(acc, costmodel.Discard{}, k.CM, nil)
	defer trk.Close()
	trk.Arm()
	k.Wake(p)
	for epoch := 0; epoch < 3; epoch++ {
		advanceIters(t, k, p, 1)
		k.Stop(p)
		if _, err := trk.Collect(); err != nil {
			t.Fatal(err)
		}
		k.Wake(p)
	}
	if trk.Granularity() != 4096 {
		t.Fatalf("adaptive block size %d for dense writes, want to stay at 4096", trk.Granularity())
	}
}

func TestFullTrackerReturnsEverything(t *testing.T) {
	prog := workload.Dense{MiB: 1}
	k := newMachine("k", prog)
	p, _ := k.Spawn(prog.Name())
	workload.SetIterations(p, 100)
	advanceIters(t, k, p, 1)
	trk := &FullTracker{AS: p.AS}
	trk.Arm()
	a, _ := trk.Collect()
	b, _ := trk.Collect()
	if rangeBytes(a) != rangeBytes(b) || rangeBytes(a) == 0 {
		t.Fatalf("full tracker inconsistent: %d vs %d", rangeBytes(a), rangeBytes(b))
	}
}

func TestCollectBeforeArmFails(t *testing.T) {
	prog := workload.Dense{MiB: 1}
	k := newMachine("k", prog)
	p, _ := k.Spawn(prog.Name())
	if _, err := NewKernelWPTracker(k, p).Collect(); err == nil {
		t.Fatal("kernel tracker Collect before Arm succeeded")
	}
	ctx := &kernel.Context{K: k, P: p, T: p.MainThread()}
	if _, err := NewUserWPTracker(ctx).Collect(); err == nil {
		t.Fatal("user tracker Collect before Arm succeeded")
	}
	acc := &KernelAccessor{K: k, P: p}
	ht, _ := NewHashTracker(acc, costmodel.Discard{}, k.CM, 512, 64)
	if _, err := ht.Collect(); err == nil {
		t.Fatal("hash tracker Collect before Arm succeeded")
	}
}

func TestTrackerCloseRestoresWritability(t *testing.T) {
	prog := workload.Dense{MiB: 1}
	k := newMachine("k", prog)
	p, _ := k.Spawn(prog.Name())
	workload.SetIterations(p, 1<<30)
	advanceIters(t, k, p, 1)
	trk := NewKernelWPTracker(k, p)
	trk.Arm()
	trk.Close()
	// After Close, writes take no tracking faults.
	f0 := p.AS.FaultCount()
	if err := p.AS.Write(workload.ArenaBase, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if p.AS.FaultCount() != f0 {
		t.Fatal("write faulted after tracker Close")
	}
}

func TestPagesToRangesCoalesces(t *testing.T) {
	rs := pagesToRanges([]mem.PageNum{5, 1, 2, 3, 9, 9, 10})
	want := []Range{
		{Addr: mem.PageNum(1).Base(), Length: 3 * mem.PageSize},
		{Addr: mem.PageNum(5).Base(), Length: mem.PageSize},
		{Addr: mem.PageNum(9).Base(), Length: 2 * mem.PageSize},
	}
	if len(rs) != len(want) {
		t.Fatalf("ranges = %+v", rs)
	}
	for i := range want {
		if rs[i] != want[i] {
			t.Fatalf("range %d = %+v, want %+v", i, rs[i], want[i])
		}
	}
	if pagesToRanges(nil) != nil {
		t.Fatal("empty input")
	}
}
