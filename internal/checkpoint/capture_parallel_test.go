package checkpoint

import (
	"bytes"
	"testing"

	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/workload"
)

// stoppedProc runs a Dense workload long enough to fault in its arena,
// then stops it for a consistent capture.
func stoppedProc(t testing.TB, mib int) (*kernel.Kernel, *proc.Process) {
	t.Helper()
	prog := workload.Dense{MiB: mib}
	k := newMachine("src", prog)
	p, err := k.Spawn(prog.Name())
	if err != nil {
		t.Fatal(err)
	}
	workload.SetIterations(p, 1<<20)
	k.RunFor(20 * simtime.Millisecond)
	k.Stop(p)
	return k, p
}

// TestShardedCaptureDigestIdentical is the acceptance check that
// parallelism is invisible in the artifact: the stored image bytes of a
// 4-worker capture equal the sequential capture's, trailer and all.
func TestShardedCaptureDigestIdentical(t *testing.T) {
	k, p := stoppedProc(t, 4)
	now := k.Now()
	seqTgt := storage.NewMemory("seq", nil)
	parTgt := storage.NewMemory("par", nil)

	imgSeq, stSeq, err := Capture(Request{
		Acc: &KernelAccessor{K: k, P: p}, Target: seqTgt, Env: storage.NopEnv(),
		Mechanism: "test", Hostname: "src", Seq: 1, Now: now,
	})
	if err != nil {
		t.Fatal(err)
	}
	imgPar, stPar, err := Capture(Request{
		Acc: &KernelAccessor{K: k, P: p}, Target: parTgt, Env: storage.NopEnv(),
		Mechanism: "test", Hostname: "src", Seq: 1, Now: now, Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stSeq.Workers != 1 || stPar.Workers != 4 {
		t.Fatalf("workers = %d/%d, want 1/4", stSeq.Workers, stPar.Workers)
	}
	if stSeq.PayloadBytes != stPar.PayloadBytes || stSeq.PayloadBytes == 0 {
		t.Fatalf("payload bytes differ: %d vs %d", stSeq.PayloadBytes, stPar.PayloadBytes)
	}
	bSeq, err := seqTgt.ReadObject(imgSeq.ObjectName(), nil)
	if err != nil {
		t.Fatal(err)
	}
	bPar, err := parTgt.ReadObject(imgPar.ObjectName(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bSeq, bPar) {
		t.Fatalf("sharded capture bytes differ from sequential (%d vs %d bytes)", len(bPar), len(bSeq))
	}
}

// TestShardedCaptureSpeedup pins the simulated-time model: reading the
// payload with 4 workers must cost less than half the sequential read.
func TestShardedCaptureSpeedup(t *testing.T) {
	k, p := stoppedProc(t, 8)
	captureCost := func(workers int) simtime.Duration {
		t0 := k.Now()
		_, st, err := Capture(Request{
			Acc:       &KernelAccessor{K: k, P: p},
			Mechanism: "test", Hostname: "src", Seq: 1, Now: t0, Parallelism: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.PayloadBytes == 0 {
			t.Fatal("empty capture")
		}
		return k.Now().Sub(t0)
	}
	seq := captureCost(1)
	par := captureCost(4)
	if par <= 0 || seq <= 0 {
		t.Fatalf("degenerate durations: seq=%v par=%v", seq, par)
	}
	if speedup := float64(seq) / float64(par); speedup < 2 {
		t.Fatalf("4-worker speedup %.2fx < 2x (seq=%v par=%v)", speedup, seq, par)
	}
}

// TestParallelCaptureRestores closes the loop at the capture level: an
// image captured with 4 workers restores and runs to the reference
// fingerprint.
func TestParallelCaptureRestores(t *testing.T) {
	prog := workload.Dense{MiB: 2}
	const iters = 6
	want := referenceRun(t, prog, iters)

	k := newMachine("src", prog)
	p, err := k.Spawn(prog.Name())
	if err != nil {
		t.Fatal(err)
	}
	workload.SetIterations(p, iters)
	for p.Regs().PC < iters/2 && p.State != proc.StateZombie {
		k.RunFor(simtime.Millisecond)
	}
	k.Stop(p)
	img, _, err := Capture(Request{
		Acc:       &KernelAccessor{K: k, P: p},
		Mechanism: "test", Hostname: "src", Seq: 1, Now: k.Now(), Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	dst := newMachine("dst", prog)
	p2, err := Restore(dst, []*Image{img}, RestoreOptions{Enqueue: true})
	if err != nil {
		t.Fatal(err)
	}
	if !dst.RunUntilExit(p2, dst.Now().Add(10*simtime.Minute)) {
		t.Fatal("restored process did not finish")
	}
	if got := workload.Fingerprint(p2); got != want {
		t.Fatalf("fingerprint %#x != reference %#x", got, want)
	}
}

// TestUserAccessorStaysSequential: syscall-based accessors cannot shard,
// so a parallel request silently degrades to one worker.
func TestUserAccessorStaysSequential(t *testing.T) {
	k, p := stoppedProc(t, 1)
	ctx := &kernel.Context{K: k, P: p, T: p.MainThread()}
	_, st, err := Capture(Request{
		Acc:       &UserAccessor{Ctx: ctx},
		Mechanism: "libckpt", Hostname: "src", Seq: 1, Now: k.Now(), Parallelism: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 1 {
		t.Fatalf("user-level capture used %d workers", st.Workers)
	}
}
