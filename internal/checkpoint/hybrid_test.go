package checkpoint

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/workload"
)

func TestHybridTrackerNarrowsDirtyPages(t *testing.T) {
	prog := workload.Dense{MiB: 1}
	k := newMachine("h", prog)
	p, _ := k.Spawn(prog.Name())
	workload.SetIterations(p, 1<<30)
	k.RunFor(2 * simtime.Millisecond)
	k.Stop(p)

	led := costmodel.NewLedger()
	trk, err := NewHybridTracker(k, p, led, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer trk.Close()
	if err := trk.Arm(); err != nil {
		t.Fatal(err)
	}
	if _, err := trk.Collect(); err != nil { // baseline epoch
		t.Fatal(err)
	}

	// Touch 8 bytes in each of two pages: a page tracker reports 8192
	// bytes; the hybrid must report exactly two 256-byte blocks.
	if err := p.AS.Write(workload.ArenaBase+100, []byte("12345678")); err != nil {
		t.Fatal(err)
	}
	if err := p.AS.Write(workload.ArenaBase+5*mem.PageSize+3000, []byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	rs, err := trk.Collect()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range rs {
		total += r.Length
	}
	if len(rs) != 2 || total != 512 {
		t.Fatalf("ranges = %+v (total %d), want two 256B blocks", rs, total)
	}
	st := trk.Stats()
	if st.Faults == 0 {
		t.Fatal("no page faults recorded (page stage inactive)")
	}
	// Only the two dirty pages were hashed this epoch — far less than the
	// resident set a pure hash tracker would scan.
	if st.HashedBytes > 600*mem.PageSize {
		t.Fatalf("hashed %d bytes, expected only dirty pages + baseline", st.HashedBytes)
	}
}

func TestHybridTrackerHashesOnlyDirtyPages(t *testing.T) {
	// Compare hash volume: pure hash tracker scans the whole resident set
	// every epoch; hybrid scans only the dirty pages.
	prog := workload.PointerChase{MiB: 4, WriteEvery: 32, Seed: 5}
	mkRun := func(useHybrid bool) uint64 {
		k := newMachine("h", prog)
		p, _ := k.Spawn(prog.Name())
		workload.SetIterations(p, 1<<40)
		k.RunFor(2 * simtime.Millisecond)
		k.Stop(p)
		var trk Tracker
		if useHybrid {
			h, err := NewHybridTracker(k, p, costmodel.Discard{}, 256)
			if err != nil {
				t.Fatal(err)
			}
			trk = h
		} else {
			h, err := NewHashTracker(&KernelAccessor{K: k, P: p}, costmodel.Discard{}, k.CM, 256, 64)
			if err != nil {
				t.Fatal(err)
			}
			trk = h
		}
		defer trk.Close()
		trk.Arm()
		trk.Collect() // baseline
		base := trk.Stats().HashedBytes
		k.Wake(p)
		k.RunFor(2 * simtime.Millisecond)
		k.Stop(p)
		trk.Collect()
		return trk.Stats().HashedBytes - base
	}
	hybrid := mkRun(true)
	pure := mkRun(false)
	if hybrid >= pure/4 {
		t.Fatalf("hybrid hashed %d bytes, pure hash %d — expected ≥4× reduction", hybrid, pure)
	}
}

func TestHybridRejectsBadBlockSize(t *testing.T) {
	prog := workload.Dense{MiB: 1}
	k := newMachine("h", prog)
	p, _ := k.Spawn(prog.Name())
	for _, bs := range []int{0, 100, 8192} {
		if _, err := NewHybridTracker(k, p, costmodel.Discard{}, bs); err == nil {
			t.Fatalf("block size %d accepted", bs)
		}
	}
	trk, _ := NewHybridTracker(k, p, costmodel.Discard{}, 512)
	if _, err := trk.Collect(); err == nil {
		t.Fatal("Collect before Arm succeeded")
	}
}

// A hybrid tracker closed and armed again starts over: its first
// collection reports every resident block, as on first use.
func TestHybridTrackerRearmsAfterClose(t *testing.T) {
	prog := workload.Dense{MiB: 1}
	k := newMachine("h", prog)
	p, _ := k.Spawn(prog.Name())
	workload.SetIterations(p, 100)
	advanceIters(t, k, p, 1)
	k.Stop(p)
	trk, err := NewHybridTracker(k, p, costmodel.Discard{}, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer trk.Close()
	for round := 0; round < 2; round++ {
		if err := trk.Arm(); err != nil {
			t.Fatal(err)
		}
		rs, err := trk.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rangeBytes(rs), len(residentPages(p.AS))*mem.PageSize; got != want {
			t.Fatalf("round %d: first collection %d bytes, want every resident page (%d)", round, got, want)
		}
		trk.Close()
	}
}

func TestHybridCaptureRestoreEquivalence(t *testing.T) {
	prog := workload.PointerChase{MiB: 2, WriteEvery: 16, Seed: 12}
	const iters = 6000

	// Reference.
	kr := newMachine("ref", prog)
	pr, _ := kr.Spawn(prog.Name())
	workload.SetIterations(pr, iters)
	if !kr.RunUntilExit(pr, kr.Now().Add(simtime.Minute)) {
		t.Fatal("reference stuck")
	}
	want := workload.Fingerprint(pr)

	k := newMachine("src", prog)
	p, _ := k.Spawn(prog.Name())
	workload.SetIterations(p, iters)
	trk, err := NewHybridTracker(k, p, costmodel.Discard{}, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer trk.Close()
	if err := trk.Arm(); err != nil {
		t.Fatal(err)
	}

	var chain []*Image
	parent := ""
	for i := 0; i < 3; i++ {
		target := p.Regs().PC + iters/5
		for p.Regs().PC < target && p.State != proc.StateZombie {
			k.RunFor(simtime.Millisecond)
		}
		k.Stop(p)
		img, _, err := Capture(Request{
			Acc: &KernelAccessor{K: k, P: p}, Trk: trk,
			Mechanism: "hybrid", Hostname: "src", Seq: uint64(i + 1), Parent: parent, Now: k.Now(),
		})
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, img)
		parent = img.ObjectName()
		k.Wake(p)
	}

	dst := newMachine("dst", prog)
	p2, err := Restore(dst, chain, RestoreOptions{Enqueue: true})
	if err != nil {
		t.Fatal(err)
	}
	if !dst.RunUntilExit(p2, dst.Now().Add(simtime.Minute)) {
		t.Fatal("restored stuck")
	}
	if got := workload.Fingerprint(p2); got != want {
		t.Fatalf("hybrid-chain fingerprint %#x, want %#x", got, want)
	}
}

func TestCoalesceEquivalentToChain(t *testing.T) {
	prog := workload.Sparse{MiB: 2, WriteFrac: 0.1, Seed: 19}
	const iters = 24

	want := referenceRun(t, prog, iters)

	k := newMachine("src", prog)
	p, _ := k.Spawn(prog.Name())
	workload.SetIterations(p, iters)
	trk := NewKernelWPTracker(k, p)
	if err := trk.Arm(); err != nil {
		t.Fatal(err)
	}
	defer trk.Close()

	var chain []*Image
	parent := ""
	for i := 0; i < 4; i++ {
		target := p.Regs().PC + 4
		for p.Regs().PC < target && p.State != proc.StateZombie {
			k.RunFor(simtime.Millisecond)
		}
		k.Stop(p)
		img, _, err := Capture(Request{
			Acc: &KernelAccessor{K: k, P: p}, Trk: trk,
			Mechanism: "t", Hostname: "src", Seq: uint64(i + 1), Parent: parent, Now: k.Now(),
		})
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, img)
		parent = img.ObjectName()
		k.Wake(p)
	}

	single, err := FoldChain(chain)
	if err != nil {
		t.Fatal(err)
	}
	if single.Mode != ModeFull || single.Parent != "" {
		t.Fatalf("coalesced image mode=%v parent=%q", single.Mode, single.Parent)
	}
	if err := single.Verify(); err != nil {
		t.Fatal(err)
	}
	// The coalesced image must carry at least the leaf's payload and no
	// more than the chain total.
	chainTotal := 0
	for _, img := range chain {
		chainTotal += img.PayloadBytes()
	}
	if single.PayloadBytes() > chainTotal {
		t.Fatalf("coalesced %d bytes > chain total %d", single.PayloadBytes(), chainTotal)
	}

	// Restoring the single image = restoring the chain.
	dst := newMachine("dst", prog)
	p2, err := Restore(dst, []*Image{single}, RestoreOptions{Enqueue: true})
	if err != nil {
		t.Fatal(err)
	}
	if !dst.RunUntilExit(p2, dst.Now().Add(simtime.Minute)) {
		t.Fatal("restored stuck")
	}
	if got := workload.Fingerprint(p2); got != want {
		t.Fatalf("coalesced fingerprint %#x, want %#x", got, want)
	}
}

func TestCoalesceRejectsBrokenChain(t *testing.T) {
	if _, err := FoldChain(nil); err == nil {
		t.Fatal("empty chain accepted")
	}
	bad := validImage()
	bad.Mode = ModeIncremental
	bad.Parent = "x"
	if _, err := FoldChain([]*Image{bad}); err == nil {
		t.Fatal("incremental-head chain accepted")
	}
}
