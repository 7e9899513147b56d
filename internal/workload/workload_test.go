package workload

import (
	"bytes"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/simos/kernel"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
)

func runKernel(t *testing.T, progs ...kernel.Program) *kernel.Kernel {
	t.Helper()
	reg := kernel.NewRegistry()
	for _, p := range progs {
		reg.MustRegister(p)
	}
	return kernel.New(kernel.DefaultConfig("w0"), costmodel.Default2005(), reg)
}

func spawnAndFinish(t *testing.T, k *kernel.Kernel, name string, budget simtime.Duration) *proc.Process {
	t.Helper()
	p, err := k.Spawn(name)
	if err != nil {
		t.Fatal(err)
	}
	if !k.RunUntilExit(p, k.Now().Add(budget)) {
		t.Fatalf("%s did not finish in %v (state %v, pc %d)", name, budget, p.State, p.Regs().PC)
	}
	return p
}

func TestDenseCompletesAndDirtiesWholeArena(t *testing.T) {
	w := Dense{MiB: 1, Iterations: 2}
	k := runKernel(t, w)
	p := spawnAndFinish(t, k, w.Name(), simtime.Minute)
	if p.ExitCode != 0 {
		t.Fatalf("exit %d", p.ExitCode)
	}
	arena := p.AS.FindByName(ArenaName)
	if arena == nil {
		t.Fatal("no arena")
	}
	if got, want := arena.ResidentPages(), 256; got != want {
		t.Fatalf("resident pages %d, want %d (1 MiB)", got, want)
	}
	if Fingerprint(p) == 0 {
		t.Fatal("zero fingerprint")
	}
}

func TestDenseDeterministicFingerprint(t *testing.T) {
	w := Dense{MiB: 1, Iterations: 3}
	k1 := runKernel(t, w)
	k2 := runKernel(t, w)
	p1 := spawnAndFinish(t, k1, w.Name(), simtime.Minute)
	p2 := spawnAndFinish(t, k2, w.Name(), simtime.Minute)
	if Fingerprint(p1) != Fingerprint(p2) {
		t.Fatal("fingerprints differ across identical runs")
	}
	if p1.AS.Checksum() != p2.AS.Checksum() {
		t.Fatal("memory images differ across identical runs")
	}
}

func TestSparseDirtyFraction(t *testing.T) {
	w := Sparse{MiB: 4, WriteFrac: 0.1, Seed: 1, Iterations: 1}
	k := runKernel(t, w)
	p := spawnAndFinish(t, k, w.Name(), simtime.Minute)
	arena := p.AS.FindByName(ArenaName)
	total := arena.NumPages()
	resident := arena.ResidentPages()
	// ~10% of pages written (collisions allowed), never more than requested.
	if resident > total/10+1 || resident < total/20 {
		t.Fatalf("resident %d of %d pages, want ≈10%%", resident, total)
	}
}

func TestSparseRejectsBadFrac(t *testing.T) {
	for _, frac := range []float64{0, -0.5, 1.5} {
		w := Sparse{MiB: 1, WriteFrac: frac, Iterations: 1}
		reg := kernel.NewRegistry()
		reg.MustRegister(w)
		k := kernel.New(kernel.DefaultConfig("w"), costmodel.Default2005(), reg)
		if _, err := k.Spawn(w.Name()); err == nil {
			t.Fatalf("WriteFrac %v accepted", frac)
		}
	}
}

func TestStencilAlternatesGrids(t *testing.T) {
	w := Stencil{MiB: 2, Iterations: 2}
	k := runKernel(t, w)
	p := spawnAndFinish(t, k, w.Name(), simtime.Minute)
	arena := p.AS.FindByName(ArenaName)
	// After two iterations both grids were written once each.
	if arena.ResidentPages() != arena.NumPages() {
		t.Fatalf("resident %d of %d", arena.ResidentPages(), arena.NumPages())
	}
	// Per-iteration dirty set is one grid = half the arena.
	p.AS.ClearDirty()
	p2, _ := k.Spawn(w.Name())
	_ = p2
}

func TestStencilPerIterationDelta(t *testing.T) {
	w := Stencil{MiB: 2, Iterations: 4}
	k := runKernel(t, w)
	p, err := k.Spawn(w.Name())
	if err != nil {
		t.Fatal(err)
	}
	// Run until iteration 1 completes, then measure iteration 2's dirty set.
	for p.Regs().PC < 1 && p.State != proc.StateZombie {
		k.RunFor(100 * simtime.Microsecond)
	}
	p.AS.ClearDirty()
	start := p.Regs().PC
	for p.Regs().PC == start && p.State != proc.StateZombie {
		k.RunFor(100 * simtime.Microsecond)
	}
	if p.State == proc.StateZombie {
		t.Fatal("workload finished before the measurement window")
	}
	dirty := len(p.AS.DirtyPages(false))
	arena := p.AS.FindByName(ArenaName)
	half := arena.NumPages() / 2
	if dirty < half-2 || dirty > half+2 {
		t.Fatalf("per-iteration dirty = %d pages, want ≈%d (one grid)", dirty, half)
	}
}

func TestPointerChaseWritesRarely(t *testing.T) {
	w := PointerChase{MiB: 2, WriteEvery: 128, Seed: 3, Iterations: 2048}
	k := runKernel(t, w)
	p := spawnAndFinish(t, k, w.Name(), simtime.Minute)
	dirty := len(p.AS.DirtyPages(false))
	// 2048 accesses / 128 = 16 writes max (some may collide on a page).
	if dirty > 17 {
		t.Fatalf("dirty = %d pages, want ≤17", dirty)
	}
	if dirty == 0 {
		t.Fatal("no writes at all")
	}
}

func TestPhasedVariesDelta(t *testing.T) {
	w := Phased{MiB: 2, PhaseIters: 2, Seed: 5, Iterations: 8}
	k := runKernel(t, w)
	p := spawnAndFinish(t, k, w.Name(), simtime.Minute)
	if p.ExitCode != 0 || Fingerprint(p) == 0 {
		t.Fatalf("exit %d fp %d", p.ExitCode, Fingerprint(p))
	}
}

func TestSpinPureCompute(t *testing.T) {
	w := Spin{Tag: "t", Iterations: 100}
	k := runKernel(t, w)
	p := spawnAndFinish(t, k, w.Name(), simtime.Minute)
	// Only the text-stamp page the kernel wrote at exec time is resident.
	if p.AS.ResidentBytes() > mem.PageSize {
		t.Fatalf("spin touched memory: %d resident bytes", p.AS.ResidentBytes())
	}
	if p.CPUTime == 0 {
		t.Fatal("spin burned no CPU")
	}
}

func TestHookedFiresAtBoundaries(t *testing.T) {
	var fired []uint64
	w := Hooked{
		Inner: Dense{MiB: 1, Iterations: 9},
		Label: "test",
		Every: 3,
		Hook: func(ctx *kernel.Context) {
			fired = append(fired, ctx.Regs().PC)
		},
	}
	k := runKernel(t, w)
	spawnAndFinish(t, k, w.Name(), simtime.Minute)
	if len(fired) != 3 || fired[0] != 3 || fired[1] != 6 || fired[2] != 9 {
		t.Fatalf("hook fired at %v, want [3 6 9]", fired)
	}
}

func TestMultiThreadedProgress(t *testing.T) {
	w := MultiThreaded{MiB: 1, NThreads: 4, Iterations: 32}
	k := runKernel(t, w)
	p := spawnAndFinish(t, k, w.Name(), simtime.Minute)
	if len(p.Threads) != 4 {
		t.Fatalf("threads = %d", len(p.Threads))
	}
	for i, th := range p.Threads {
		if th.Regs.PC != 32 {
			t.Fatalf("thread %d pc = %d, want 32", i, th.Regs.PC)
		}
	}
	if !p.Multithreaded() {
		t.Fatal("not flagged multithreaded")
	}
}

func TestMultiThreadedRequiresTwoThreads(t *testing.T) {
	w := MultiThreaded{MiB: 1, NThreads: 1}
	reg := kernel.NewRegistry()
	reg.MustRegister(w)
	k := kernel.New(kernel.DefaultConfig("w"), costmodel.Default2005(), reg)
	if _, err := k.Spawn(w.Name()); err == nil {
		t.Fatal("1-thread MultiThreaded accepted")
	}
}

func TestResourceUserHappyPath(t *testing.T) {
	w := ResourceUser{MiB: 1, Iterations: 40, UseSocket: true, UseShm: true, CheckPID: true}
	k := runKernel(t, w)
	p := spawnAndFinish(t, k, w.Name(), simtime.Minute)
	if p.ExitCode != ExitOK {
		t.Fatalf("exit %d, want OK", p.ExitCode)
	}
}

func TestResourceUserDetectsLostSocket(t *testing.T) {
	w := ResourceUser{MiB: 1, Iterations: 0, UseSocket: true}
	k := runKernel(t, w)
	p, _ := k.Spawn(w.Name())
	k.RunFor(100 * simtime.Microsecond)
	// Sever the connection behind the program's back.
	ctx := &kernel.Context{K: k, P: p, T: p.MainThread()}
	ctx.SocketClose(int(p.Regs().G[5]))
	k.RunUntilExit(p, k.Now().Add(simtime.Minute))
	if p.ExitCode != ExitSocketLost {
		t.Fatalf("exit %d, want ExitSocketLost", p.ExitCode)
	}
}

func TestResourceUserDetectsPIDChange(t *testing.T) {
	w := ResourceUser{MiB: 1, Iterations: 0, CheckPID: true}
	k := runKernel(t, w)
	p, _ := k.Spawn(w.Name())
	k.RunFor(100 * simtime.Microsecond)
	// Simulate a restart that did not preserve the PID: the stored value
	// no longer matches getpid().
	if err := p.AS.WriteDirect(ArenaBase, []byte{0xFF, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilExit(p, k.Now().Add(simtime.Minute))
	if p.ExitCode != ExitPIDChanged {
		t.Fatalf("exit %d, want ExitPIDChanged", p.ExitCode)
	}
}

func TestAllocatorTogglesNonReentrant(t *testing.T) {
	// Drive steps directly so the flag is observable at exact boundaries:
	// after an even-PC step the process is inside the non-reentrant
	// section; the next (odd-PC) step clears it on entry.
	w := Allocator{MiB: 1, Iterations: 0}
	k := runKernel(t, w)
	p, _ := k.Spawn(w.Name())
	ctx := &kernel.Context{K: k, P: p, T: p.MainThread()}
	if _, err := w.Step(ctx); err != nil { // PC 0 (even)
		t.Fatal(err)
	}
	if !p.InNonReentrant {
		t.Fatal("flag not set after even step")
	}
	if _, err := w.Step(ctx); err != nil { // PC 1 (odd)
		t.Fatal(err)
	}
	if p.InNonReentrant {
		t.Fatal("flag not cleared after odd step")
	}
}

func TestSplitmixIsStateless(t *testing.T) {
	if splitmix64(42) != splitmix64(42) {
		t.Fatal("splitmix64 not a function")
	}
	if splitmix64(1) == splitmix64(2) {
		t.Fatal("suspicious collision")
	}
}

func TestPageBufVariesWithTag(t *testing.T) {
	a := make([]byte, mem.PageSize)
	b := make([]byte, mem.PageSize)
	pageBuf(a, 1)
	pageBuf(b, 2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("pageBuf identical for different tags")
	}
}

func TestSuiteProfiles(t *testing.T) {
	progs := Suite(4)
	if len(progs) != 5 {
		t.Fatalf("suite has %d programs", len(progs))
	}
	names := map[string]bool{}
	for _, prog := range progs {
		if names[prog.Name()] {
			t.Fatalf("duplicate suite name %s", prog.Name())
		}
		names[prog.Name()] = true
	}
	// Every suite member runs and produces a fingerprint.
	for _, prog := range progs {
		k := runKernel(t, prog)
		p, err := k.Spawn(prog.Name())
		if err != nil {
			t.Fatal(err)
		}
		SetIterations(p, 4)
		if !k.RunUntilExit(p, k.Now().Add(simtime.Minute)) {
			t.Fatalf("%s stuck", prog.Name())
		}
		if Fingerprint(p) == 0 {
			t.Fatalf("%s produced no fingerprint", prog.Name())
		}
	}
}

func TestSuiteWriteDensityOrdering(t *testing.T) {
	// The suite's defining property: per-iteration dirty footprint orders
	// SAGE > Sweep3D > SP > NBody.
	dirtyFrac := func(prog kernel.Program) float64 {
		k := runKernel(t, prog)
		p, _ := k.Spawn(prog.Name())
		SetIterations(p, 1<<30)
		// Warm up one iteration, then measure one.
		for p.Regs().PC < 1 {
			k.RunFor(100 * simtime.Microsecond)
		}
		p.AS.ClearDirty()
		start := p.Regs().PC
		for p.Regs().PC == start {
			k.RunFor(100 * simtime.Microsecond)
		}
		arena := p.AS.FindByName(ArenaName)
		return float64(len(p.AS.DirtyPages(false))) / float64(arena.NumPages())
	}
	sage := dirtyFrac(SAGE(2))
	sweep := dirtyFrac(Sweep3D(2))
	sp := dirtyFrac(SP(2))
	nbody := dirtyFrac(NBodyClass(2))
	if !(sage > sweep && sweep > sp && sp > nbody) {
		t.Fatalf("density ordering broken: sage %.3f sweep %.3f sp %.3f nbody %.3f",
			sage, sweep, sp, nbody)
	}
}

// pageBufBytewise is the byte-at-a-time fill pageBuf replaced, kept as
// the reference its word-wide stores must reproduce.
func pageBufBytewise(buf []byte, tag uint64) {
	v := splitmix64(tag)
	for i := 0; i < len(buf); i += 8 {
		v = splitmix64(v)
		for j := 0; j < 8 && i+j < len(buf); j++ {
			buf[i+j] = byte(v >> (8 * j))
		}
	}
}

// TestPageBufMatchesBytewise: the word-wide fill writes exactly the
// reference bytes for every short length, a page and a page less one,
// over 1,000 tags.
func TestPageBufMatchesBytewise(t *testing.T) {
	lengths := []int{4095, 4096}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		got, want := make([]byte, n), make([]byte, n)
		for tag := uint64(0); tag < 1000; tag++ {
			pageBuf(got, tag*0x9e3779b97f4a7c15)
			pageBufBytewise(want, tag*0x9e3779b97f4a7c15)
			if !bytes.Equal(got, want) {
				t.Fatalf("len %d tag %d: pageBuf differs from the bytewise reference", n, tag)
			}
		}
	}
}

// TestFillLanesMatchesPageBuf: every lane of the interleaved fill holds
// exactly pageBuf's page for its tag, over 1,000 tag sets.
func TestFillLanesMatchesPageBuf(t *testing.T) {
	var bufs [lanes][mem.PageSize]byte
	var tags [lanes]uint64
	var want [mem.PageSize]byte
	for n := uint64(0); n < 1000; n++ {
		for j := range tags {
			tags[j] = (n*lanes + uint64(j)) * 0x9e3779b97f4a7c15
		}
		fillLanes(&bufs, &tags)
		for j, tag := range tags {
			pageBuf(want[:], tag)
			if bufs[j] != want {
				t.Fatalf("lane %d tag %#x: fillLanes differs from pageBuf", j, tag)
			}
		}
	}
}

func TestFillLanesAllocates0(t *testing.T) {
	var bufs [lanes][mem.PageSize]byte
	var tags [lanes]uint64
	if a := testing.AllocsPerRun(20, func() { fillLanes(&bufs, &tags) }); a != 0 {
		t.Fatalf("fillLanes allocates %v times", a)
	}
}

// BenchmarkPageBuf fills 4 KiB pages, the per-page content cost every
// workload pays on each page it writes: one page at a time through
// pageBuf, and lanes pages at once through fillLanes, as Dense and
// Sparse do. MB/s counts every page filled.
func BenchmarkPageBuf(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		var buf [mem.PageSize]byte
		b.SetBytes(mem.PageSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pageBuf(buf[:], uint64(i))
		}
	})
	b.Run("lanes", func(b *testing.B) {
		var bufs [lanes][mem.PageSize]byte
		var tags [lanes]uint64
		b.SetBytes(lanes * mem.PageSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tags[0] = uint64(i)
			fillLanes(&bufs, &tags)
		}
	})
}
