package syslevel

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/mechanism"
	"repro/internal/simos/kernel"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/workload"
)

// runIterations advances the machine until p has executed n more
// workload iterations (or exited).
func runIterations(k *kernel.Kernel, p *proc.Process, n uint64) {
	target := p.Regs().PC + n
	for p.Regs().PC < target && p.State != proc.StateZombie {
		k.RunFor(100 * simtime.Microsecond)
	}
}

// arenaDigest hashes every resident arena page (number + contents). The
// workload's fingerprint register cannot see lost page CONTENTS — Sparse
// mixes only page numbers — so restore-completeness checks must compare
// memory itself.
func arenaDigest(t *testing.T, p *proc.Process) uint64 {
	t.Helper()
	h := fnv.New64a()
	var num [8]byte
	buf := make([]byte, mem.PageSize)
	for _, pi := range p.AS.ResidentPages() {
		if pi.VMA.Name != workload.ArenaName {
			continue
		}
		binary.LittleEndian.PutUint64(num[:], uint64(pi.Num))
		h.Write(num[:])
		if err := p.AS.ReadDirect(pi.Num.Base(), buf); err != nil {
			t.Fatalf("read page %d: %v", pi.Num, err)
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// A rebase full image must cover every resident page, not just the pages
// dirtied since the last delta. Pages written early and never touched
// again are exactly what a dirty-only "full" would lose — and with
// MaxChain=2 the third checkpoint is a rebase, so restoring from it
// alone exposes any hole.
func TestTICKRebaseFullImageComplete(t *testing.T) {
	const iters = 30
	prog := workload.Sparse{MiB: 2, WriteFrac: 0.05, Seed: 21}
	want := referenceFingerprint(t, NewTICK(), prog, iters)

	m := NewTICK()
	m.MaxChain = 2
	k := newMachine("src", prog)
	if err := m.Install(k); err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn(prog.Name())
	if err != nil {
		t.Fatal(err)
	}
	workload.SetIterations(p, iters)
	tgt := localTarget()

	// ckpt 1: full (first collection), ckpt 2: delta, ckpt 3: rebase full.
	// The process is frozen before the last capture so its memory can be
	// compared against the restored copy afterwards.
	var leaf *checkpoint.Image
	for i := 0; i < 3; i++ {
		runIterations(k, p, 4)
		if i == 2 {
			k.Stop(p)
		}
		tk, err := mechanism.Checkpoint(m, k, p, tgt, nil)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i+1, err)
		}
		leaf = tk.Img
	}
	if leaf.Mode != checkpoint.ModeFull || leaf.Parent != "" {
		t.Fatalf("third checkpoint mode=%v parent=%q, want standalone full", leaf.Mode, leaf.Parent)
	}

	// Restore from the rebase image ALONE on a fresh machine: every page
	// the process ever wrote must be in it, byte for byte.
	wantMem := arenaDigest(t, p)
	k.Exit(p, 137)
	k.Procs.Remove(p.PID)
	dst := newMachine("dst", prog)
	p2, err := m.Restart(dst, []*checkpoint.Image{leaf}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := arenaDigest(t, p2); got != wantMem {
		t.Fatalf("restored memory digest %#x, want %#x: rebase full image has holes", got, wantMem)
	}
	if !dst.RunUntilExit(p2, dst.Now().Add(10*simtime.Minute)) {
		t.Fatalf("restored process stuck (pc=%d)", p2.Regs().PC)
	}
	if got := workload.Fingerprint(p2); got != want {
		t.Fatalf("fingerprint %#x, want %#x", got, want)
	}
}

// TestCRAKDeltaChain drives the orchestration-facing delta path end to
// end: rebase full, chained deltas under an epoch namespace, a
// mid-stream rebase with a live tracker, restore by chain replay.
func TestCRAKDeltaChain(t *testing.T) {
	const iters = 40
	const epoch = 7
	prog := workload.Sparse{MiB: 2, WriteFrac: 0.05, Seed: 22}
	want := referenceFingerprint(t, NewCRAK(), prog, iters)

	m := NewCRAK()
	k := newMachine("src", prog)
	if err := m.Install(k); err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn(prog.Name())
	if err != nil {
		t.Fatal(err)
	}
	workload.SetIterations(p, iters)
	tgt := remoteTarget()

	trk := checkpoint.NewKernelWPTracker(k, p)
	if err := trk.Arm(); err != nil {
		t.Fatal(err)
	}
	defer trk.Close()

	capture := func(passTrk checkpoint.Tracker, rebase bool) *mechanism.Ticket {
		t.Helper()
		tk, err := m.RequestDelta(k, p, tgt, nil, passTrk, epoch, rebase)
		if err != nil {
			t.Fatal(err)
		}
		if err := mechanism.WaitTicket(k, tk, simtime.Minute); err != nil {
			t.Fatal(err)
		}
		return tk
	}

	// Round 1: initial rebase with the fresh tracker (first collection
	// returns everything resident → a complete full image).
	runIterations(k, p, 5)
	full := capture(trk, true)
	if full.Img.Mode != checkpoint.ModeFull {
		t.Fatalf("initial capture mode = %v", full.Img.Mode)
	}
	if !strings.HasPrefix(full.Img.ObjectName(), "ckpt/e7/") {
		t.Fatalf("epoch missing from object name %q", full.Img.ObjectName())
	}

	// Rounds 2..3: deltas chained onto the previous capture, each far
	// smaller than the full on this low-dirty-rate workload.
	var lastDelta *mechanism.Ticket
	for i := 0; i < 2; i++ {
		runIterations(k, p, 5)
		lastDelta = capture(trk, false)
		if lastDelta.Img.Mode != checkpoint.ModeIncremental {
			t.Fatalf("delta %d mode = %v", i, lastDelta.Img.Mode)
		}
		if lastDelta.Img.Parent == "" {
			t.Fatalf("delta %d has no parent", i)
		}
		if lastDelta.Stats.EncodedBytes >= full.Stats.EncodedBytes {
			t.Fatalf("delta %d shipped %d bytes, full shipped %d — no savings",
				i, lastDelta.Stats.EncodedBytes, full.Stats.EncodedBytes)
		}
	}

	// Mid-stream rebase with a LIVE tracker: per the DeltaRequester
	// contract the tracker must not be passed, and the following delta
	// still restores correctly (the uncollected dirty set carries over).
	runIterations(k, p, 5)
	re := capture(nil, true)
	if re.Img.Mode != checkpoint.ModeFull || re.Img.Parent != "" {
		t.Fatalf("rebase capture mode=%v parent=%q", re.Img.Mode, re.Img.Parent)
	}
	if re.Img.Seq <= lastDelta.Img.Seq {
		t.Fatalf("rebase seq %d reuses earlier names (≤ %d)", re.Img.Seq, lastDelta.Img.Seq)
	}
	runIterations(k, p, 5)
	k.Stop(p) // freeze so live memory matches the leaf image exactly
	leaf := capture(trk, false)

	// Kill and restore by chain replay on a fresh machine. Restart needs
	// no module state, so a fresh instance restores another's chain.
	wantMem := arenaDigest(t, p)
	k.Exit(p, 137)
	k.Procs.Remove(p.PID)
	chain, err := checkpoint.LoadChain(tgt, nil, leaf.Img.ObjectName())
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 {
		t.Fatalf("chain length %d, want 2 (rebase full + one delta)", len(chain))
	}
	dst := newMachine("dst", prog)
	p2, err := NewCRAK().Restart(dst, chain, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := arenaDigest(t, p2); got != wantMem {
		t.Fatalf("restored memory digest %#x, want %#x: chain replay lost pages", got, wantMem)
	}
	if !dst.RunUntilExit(p2, dst.Now().Add(10*simtime.Minute)) {
		t.Fatalf("restored process stuck (pc=%d)", p2.Regs().PC)
	}
	if got := workload.Fingerprint(p2); got != want {
		t.Fatalf("fingerprint %#x, want %#x", got, want)
	}
}

// A TICK capture whose write fails must not leave a hole in the chain:
// the ranges its tracker collected ride along into the next delta, which
// chains onto the last durable image.
func TestTICKFailedWriteCarriesRanges(t *testing.T) {
	prog := workload.Sparse{MiB: 2, WriteFrac: 0.05, Seed: 23}
	m := NewTICK()
	k := newMachine("src", prog)
	if err := m.Install(k); err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn(prog.Name())
	if err != nil {
		t.Fatal(err)
	}
	workload.SetIterations(p, 1<<30)
	tgt := remoteTarget()

	runIterations(k, p, 4)
	first, err := mechanism.Checkpoint(m, k, p, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	runIterations(k, p, 4)
	tgt.SetFaults(&storage.FaultPolicy{WriteFault: 1, Rng: rand.New(rand.NewSource(1))})
	if _, err := mechanism.Checkpoint(m, k, p, tgt, nil); !errors.Is(err, storage.ErrFault) {
		t.Fatalf("faulted capture: err = %v, want ErrFault", err)
	}
	tgt.SetFaults(nil)
	runIterations(k, p, 4)
	k.Stop(p) // freeze so live memory matches the leaf image exactly
	leaf, err := mechanism.Checkpoint(m, k, p, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.Img.Parent != first.Img.ObjectName() {
		t.Fatalf("delta parent %q, want the last durable image %q", leaf.Img.Parent, first.Img.ObjectName())
	}

	wantMem := arenaDigest(t, p)
	chain, err := checkpoint.LoadChain(tgt, nil, leaf.Img.ObjectName())
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 {
		t.Fatalf("chain length %d, want 2 (full + the delta after the fault)", len(chain))
	}
	p2, err := m.Restart(newMachine("dst", prog), chain, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := arenaDigest(t, p2); got != wantMem {
		t.Fatalf("restored memory digest %#x, want %#x: the failed write's ranges were lost", got, wantMem)
	}
}

// TICK's eager Restart replays at the family's restore width: over the
// same chain it charges exactly what CRAK's does.
func TestTICKRestartAppliesRestoreWidth(t *testing.T) {
	prog := workload.Sparse{MiB: 2, WriteFrac: 0.05, Seed: 24}
	src := NewTICK()
	k := newMachine("src", prog)
	if err := src.Install(k); err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn(prog.Name())
	if err != nil {
		t.Fatal(err)
	}
	workload.SetIterations(p, 1<<30)
	tgt := localTarget()
	var leaf *mechanism.Ticket
	for i := 0; i < 3; i++ {
		runIterations(k, p, 4)
		if leaf, err = mechanism.Checkpoint(src, k, p, tgt, nil); err != nil {
			t.Fatal(err)
		}
	}
	chain, err := checkpoint.LoadChain(tgt, nil, leaf.Img.ObjectName())
	if err != nil {
		t.Fatal(err)
	}
	restartTime := func(m mechanism.Mechanism) simtime.Duration {
		m.(mechanism.RestoreParallelizer).SetRestoreParallelism(4)
		dst := newMachine("dst", prog)
		start := dst.Now()
		if _, err := m.Restart(dst, chain, true); err != nil {
			t.Fatal(err)
		}
		return dst.Now().Sub(start)
	}
	crak, tick := restartTime(NewCRAK()), restartTime(NewTICK())
	if tick != crak {
		t.Fatalf("TICK restart %v, CRAK restart %v over the same chain at width 4", tick, crak)
	}
}
