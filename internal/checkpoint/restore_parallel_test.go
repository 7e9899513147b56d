package checkpoint

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/workload"
)

// buildTestChain captures a 3-link chain (full + 2 deltas) of a sparse
// workload onto the returned target and returns the leaf name.
func buildTestChain(t *testing.T) (storage.Target, string) {
	t.Helper()
	return buildChain(t, 3)
}

// buildChain captures a chain of links images (one full, then deltas)
// of buildTestChain's workload, three iterations apart.
func buildChain(t testing.TB, links int) (storage.Target, string) {
	t.Helper()
	prog := workload.Sparse{MiB: 2, WriteFrac: 0.15, Seed: 42}
	k := newMachine("src", prog)
	p, err := k.Spawn(prog.Name())
	if err != nil {
		t.Fatal(err)
	}
	workload.SetIterations(p, uint64(max(50, 3*links+3))) // outlives the chain
	srv := storage.NewServer("srv", costmodel.Default2005())
	remote := storage.NewRemote("net", srv)
	env := storage.NopEnv()
	trk := NewKernelWPTracker(k, p)
	if err := trk.Arm(); err != nil {
		t.Fatal(err)
	}
	defer trk.Close()

	var parent string
	for seq := uint64(1); seq <= uint64(links); seq++ {
		target := p.Regs().PC + 3
		for p.Regs().PC < target && p.State != proc.StateZombie {
			k.RunFor(simtime.Millisecond)
		}
		k.Stop(p)
		img, _, err := Capture(Request{
			Acc: &KernelAccessor{K: k, P: p}, Trk: trk,
			Target: remote, Env: env,
			Mechanism: "test", Hostname: "src", Seq: seq, Parent: parent, Now: k.Now(),
		})
		if err != nil {
			t.Fatal(err)
		}
		parent = img.ObjectName()
		k.Wake(p)
	}
	return remote, parent
}

// TestParallelRestoreByteIdentical restores the same chain at worker
// widths 1, 2, 4 and 8 and demands byte-identical memory — the planner
// resolves last-writer-wins before any worker runs, so width may only
// change the simulated time, never a byte.
func TestParallelRestoreByteIdentical(t *testing.T) {
	remote, leaf := buildTestChain(t)
	chain, err := LoadChain(remote, storage.NopEnv(), leaf)
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.Sparse{MiB: 2, WriteFrac: 0.15, Seed: 42}
	var want uint64
	for _, workers := range []int{1, 2, 4, 8} {
		dst := newMachine(fmt.Sprintf("dst%d", workers), prog)
		p, err := Restore(dst, chain, RestoreOptions{Parallelism: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := p.AS.Checksum()
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d restored checksum %#x != sequential %#x", workers, got, want)
		}
	}
}

// TestParallelRestoreCheaperThanSequential: the billed restore cost must
// shrink with added workers (up to the sharding overhead).
func TestParallelRestoreCheaperThanSequential(t *testing.T) {
	const n = 8 << 20
	seq := RestoreCost(n, 1)
	par := RestoreCost(n, 8)
	if par >= seq {
		t.Fatalf("RestoreCost(%d, 8) = %v, not cheaper than sequential %v", n, par, seq)
	}
}

// TestPlanReplayPrunesOverwrittenSpans: a full-page overwrite by a later
// delta must drop the earlier page write from the plan entirely.
func TestPlanReplayPrunesOverwrittenSpans(t *testing.T) {
	pageA := make([]byte, mem.PageSize)
	for i := range pageA {
		pageA[i] = 0xAA
	}
	pageB := make([]byte, mem.PageSize)
	for i := range pageB {
		pageB[i] = 0xBB
	}
	full := &Image{
		Mode: ModeFull, PID: 1, Seq: 1, Exe: "x",
		VMAs: []VMASection{{Start: 0x1000, Length: 0x2000, Kind: mem.KindHeap,
			Extents: []Extent{{Addr: 0x1000, Data: pageA}}}},
	}
	delta := &Image{
		Mode: ModeIncremental, PID: 1, Seq: 2, Exe: "x", Parent: full.ObjectName(),
		VMAs: []VMASection{{Start: 0x1000, Length: 0x2000, Kind: mem.KindHeap,
			Extents: []Extent{{Addr: 0x1000, Data: pageB}}}},
	}
	plan, err := planReplay([]*Image{full, delta})
	if err != nil {
		t.Fatal(err)
	}
	if plan.pruned != mem.PageSize {
		t.Fatalf("pruned %d bytes, want %d (the overwritten full page)", plan.pruned, mem.PageSize)
	}
	if plan.copied != mem.PageSize {
		t.Fatalf("copied %d bytes, want %d", plan.copied, mem.PageSize)
	}
	// And the surviving span is the later delta's.
	as := mem.NewAddressSpace()
	if _, err := as.Map(0x1000, 0x2000, mem.ProtRW, mem.KindHeap, ""); err != nil {
		t.Fatal(err)
	}
	if err := applyPlan(as, &plan, 2); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := as.ReadDirect(0x1000, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xBB {
		t.Fatalf("restored byte %#x, want 0xBB (last writer)", got[0])
	}
}

// TestPlanReplaySubPageOverlap: partially overlapping sub-page spans
// must resolve in chain order at every width.
func TestPlanReplaySubPageOverlap(t *testing.T) {
	full := &Image{
		Mode: ModeFull, PID: 1, Seq: 1, Exe: "x",
		VMAs: []VMASection{{Start: 0x1000, Length: 0x1000, Kind: mem.KindHeap,
			Extents: []Extent{{Addr: 0x1000, Data: []byte("aaaaaaaa")}}}},
	}
	delta := &Image{
		Mode: ModeIncremental, PID: 1, Seq: 2, Exe: "x", Parent: full.ObjectName(),
		VMAs: []VMASection{{Start: 0x1000, Length: 0x1000, Kind: mem.KindHeap,
			Extents: []Extent{{Addr: 0x1004, Data: []byte("bbbb")}}}},
	}
	for _, workers := range []int{1, 4} {
		plan, err := planReplay([]*Image{full, delta})
		if err != nil {
			t.Fatal(err)
		}
		as := mem.NewAddressSpace()
		if _, err := as.Map(0x1000, 0x1000, mem.ProtRW, mem.KindHeap, ""); err != nil {
			t.Fatal(err)
		}
		if err := applyPlan(as, &plan, workers); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 8)
		if err := as.ReadDirect(0x1000, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != "aaaabbbb" {
			t.Fatalf("workers=%d restored %q, want aaaabbbb", workers, got)
		}
	}
}

// TestLoadChainEmptyLeaf: the empty object name must come back as a
// wrapped ErrNeedsChain error, not the storage layer's panic.
func TestLoadChainEmptyLeaf(t *testing.T) {
	srv := storage.NewServer("srv", costmodel.Default2005())
	remote := storage.NewRemote("net", srv)
	_, err := LoadChain(remote, nil, "")
	if !errors.Is(err, ErrNeedsChain) {
		t.Fatalf("LoadChain(\"\") err = %v, want ErrNeedsChain", err)
	}
}

// TestLoadChainCycleTerminates: parent links that cycle (corrupted or
// adversarial metadata) must fail cleanly instead of walking forever.
func TestLoadChainCycleTerminates(t *testing.T) {
	srv := storage.NewServer("srv", costmodel.Default2005())
	remote := storage.NewRemote("net", srv)
	a := &Image{Mode: ModeIncremental, PID: 1, Seq: 2, Exe: "x"}
	b := &Image{Mode: ModeIncremental, PID: 1, Seq: 3, Exe: "x"}
	a.Parent = b.ObjectName()
	b.Parent = a.ObjectName()
	for _, img := range []*Image{a, b} {
		data, err := img.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		if err := storage.Write(remote, img.ObjectName(), data, storage.WriteOptions{Atomic: true}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := LoadChain(remote, nil, a.ObjectName())
	if !errors.Is(err, ErrNeedsChain) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("cyclic chain err = %v, want ErrNeedsChain wrapping ErrCorrupt", err)
	}
	// A self-parent is the tightest cycle.
	self := &Image{Mode: ModeIncremental, PID: 2, Seq: 1, Exe: "x"}
	self.Parent = self.ObjectName()
	data, _ := self.EncodeBytes()
	if err := storage.Write(remote, self.ObjectName(), data, storage.WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadChain(remote, nil, self.ObjectName()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("self-parent err = %v, want ErrCorrupt", err)
	}
}

// FuzzLoadChainParents drives LoadChain over arbitrary parent-link
// topologies (cycles, dangling names, deep lines) and requires it to
// terminate with a verified chain or a clean error — never hang or
// panic, which is what the seen-set hardening guarantees.
func FuzzLoadChainParents(f *testing.F) {
	f.Add([]byte{0, 1, 2}, uint8(0))
	f.Add([]byte{1, 1, 1}, uint8(1)) // cycles
	f.Add([]byte{5, 4, 3, 2, 1, 0}, uint8(2))
	f.Fuzz(func(t *testing.T, links []byte, leafIdx uint8) {
		if len(links) == 0 || len(links) > 24 {
			t.Skip()
		}
		srv := storage.NewServer("srv", costmodel.Default2005())
		remote := storage.NewRemote("net", srv)
		imgs := make([]*Image, len(links))
		for i := range links {
			imgs[i] = &Image{Mode: ModeIncremental, PID: 1, Seq: uint64(i + 1), Exe: "x"}
		}
		for i, l := range links {
			pi := int(l) % (len(links) + 1)
			if pi == len(links) {
				imgs[i].Mode = ModeFull // chain head
			} else {
				imgs[i].Parent = imgs[pi].ObjectName()
			}
		}
		for _, img := range imgs {
			data, err := img.EncodeBytes()
			if err != nil {
				t.Fatal(err)
			}
			if err := storage.Write(remote, img.ObjectName(), data, storage.WriteOptions{Atomic: true}); err != nil {
				t.Fatal(err)
			}
		}
		leaf := imgs[int(leafIdx)%len(imgs)].ObjectName()
		chain, err := LoadChain(remote, nil, leaf)
		if err != nil {
			return // clean failure is fine; hanging or panicking is not
		}
		if err := VerifyChain(chain); err != nil {
			t.Fatalf("LoadChain returned an unverified chain: %v", err)
		}
	})
}

// TestRestoreFDErrorsAreWrapped: a seek failure on a restored descriptor
// must name the fd, path and offset.
func TestRestoreFDErrorsAreWrapped(t *testing.T) {
	prog := workload.Dense{MiB: 1}
	img := &Image{
		Mode: ModeFull, PID: 1, Seq: 1, Exe: prog.Name(),
		Threads: []ThreadRecord{{TID: 1}},
		FDs:     []FDRecord{{FD: 3, Path: "/missing", Offset: 7}},
	}
	dst := newMachine("dst", prog)
	_, err := Restore(dst, []*Image{img}, RestoreOptions{})
	if err == nil || !strings.Contains(err.Error(), "restore fd 3") {
		t.Fatalf("err = %v, want wrapped fd context", err)
	}
}
