package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
)

func policy(t *testing.T, seed int64, mutate func(*FaultPolicy)) *FaultPolicy {
	t.Helper()
	fp := &FaultPolicy{Rng: rand.New(rand.NewSource(seed))}
	mutate(fp)
	return fp
}

func payload(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i)
	}
	return data
}

func TestPutCrashLeavesTornObjectUnderFinalName(t *testing.T) {
	l := NewLocal("d", costmodel.Default2005(), nil)
	l.SetFaults(policy(t, 1, func(fp *FaultPolicy) { fp.WriteFault = 1 }))

	data := payload(4096)
	err := Write(l, "img", data, WriteOptions{Env: NopEnv()})
	if !errors.Is(err, ErrFault) {
		t.Fatalf("err = %v, want ErrFault", err)
	}
	// The crash published whatever prefix had streamed — under the final
	// name, where a restore will find it.
	got, rerr := l.ReadObject("img", NopEnv())
	if rerr != nil {
		t.Fatalf("torn object missing: %v", rerr)
	}
	if len(got) >= len(data) {
		t.Fatalf("torn object has %d bytes, want < %d", len(got), len(data))
	}
	if !bytes.Equal(got, data[:len(got)]) {
		t.Fatal("torn object is not a prefix of the payload")
	}
	if l.faults.Crashes != 1 {
		t.Fatalf("Crashes = %d", l.faults.Crashes)
	}
}

func TestPutAtomicCrashPreservesCommittedImage(t *testing.T) {
	l := NewLocal("d", costmodel.Default2005(), nil)
	v1 := payload(1024)
	if err := Write(l, "img", v1, WriteOptions{Atomic: true, Env: NopEnv()}); err != nil {
		t.Fatal(err)
	}

	l.SetFaults(policy(t, 2, func(fp *FaultPolicy) { fp.WriteFault = 1 }))
	err := Write(l, "img", payload(4096), WriteOptions{Atomic: true, Env: NopEnv()})
	if !errors.Is(err, ErrFault) {
		t.Fatalf("err = %v, want ErrFault", err)
	}
	// The committed image survived the failed overwrite untouched…
	got, rerr := l.ReadObject("img", NopEnv())
	if rerr != nil || !bytes.Equal(got, v1) {
		t.Fatalf("committed image damaged: err=%v len=%d", rerr, len(got))
	}
	// …and the crash debris is confined to the staging name.
	if _, err := l.ReadObject(StagingName("img"), NopEnv()); err != nil {
		t.Fatalf("staging debris missing: %v", err)
	}
	if !IsStaging(StagingName("img")) || IsStaging("img") {
		t.Fatal("staging-name classification broken")
	}
}

func TestSilentTearHitsOnlyNonDurableCommits(t *testing.T) {
	l := NewLocal("d", costmodel.Default2005(), nil)
	fp := policy(t, 3, func(fp *FaultPolicy) { fp.SilentTear = 1 })
	l.SetFaults(fp)
	data := payload(4096)

	// Legacy in-place Put: the commit "succeeds" but silently loses its
	// tail — the failure mode a missing durability barrier permits.
	if err := Write(l, "unsafe", data, WriteOptions{Env: NopEnv()}); err != nil {
		t.Fatal(err)
	}
	got, _ := l.ReadObject("unsafe", NopEnv())
	if len(got) >= len(data) {
		t.Fatalf("non-durable commit not torn: %d bytes", len(got))
	}
	if fp.Tears != 1 {
		t.Fatalf("Tears = %d", fp.Tears)
	}

	// An atomic Write commits behind the durability barrier: immune.
	if err := Write(l, "safe", data, WriteOptions{Atomic: true, Env: NopEnv()}); err != nil {
		t.Fatal(err)
	}
	got, _ = l.ReadObject("safe", NopEnv())
	if !bytes.Equal(got, data) {
		t.Fatalf("durable commit torn: %d of %d bytes", len(got), len(data))
	}
	if fp.Tears != 1 {
		t.Fatalf("Tears = %d after atomic put", fp.Tears)
	}
}

// An unsafe writer holding a fencing epoch writes in place on the store
// beneath its fence, so the missing durability barrier can tear its
// commit exactly as it tears an unfenced one.
func TestSilentTearReachesFencedUnsafeWriter(t *testing.T) {
	l := NewLocal("d", costmodel.Default2005(), nil)
	fp := policy(t, 3, func(fp *FaultPolicy) { fp.SilentTear = 1 })
	l.SetFaults(fp)
	dom := NewFenceDomain("job", nil)
	tgt := Unsafe(FencedAt(l, dom, dom.Advance()))
	data := payload(4096)
	if err := Write(tgt, "img", data, WriteOptions{Atomic: true, Env: NopEnv()}); err != nil {
		t.Fatal(err)
	}
	got, _ := l.ReadObject("img", NopEnv())
	if len(got) >= len(data) || fp.Tears != 1 {
		t.Fatalf("fenced unsafe commit not torn: %d of %d bytes, Tears = %d", len(got), len(data), fp.Tears)
	}
}

func TestRemoteWriteCrashCanEscalateToOutage(t *testing.T) {
	srv := NewServer("srv", costmodel.Default2005())
	outages := 0
	fp := policy(t, 4, func(fp *FaultPolicy) {
		fp.WriteFault = 1
		fp.OutageFrac = 1
		fp.OnOutage = func() { outages++ }
	})
	srv.SetFaults(fp)
	r := NewRemote("n0→srv", srv)

	err := Write(r, "img", payload(4096), WriteOptions{Env: NopEnv()})
	if !errors.Is(err, ErrFault) || !errors.Is(err, ErrTargetUnavailable) {
		t.Fatalf("err = %v, want ErrFault and ErrTargetUnavailable", err)
	}
	if r.Available() {
		t.Fatal("server still available after mid-transfer outage")
	}
	if outages != 1 || fp.Outages != 1 {
		t.Fatalf("outage hooks: cb=%d counter=%d", outages, fp.Outages)
	}
	// Down means down: new writes are refused until recovery.
	if _, err := r.Create("img2", NopEnv()); !errors.Is(err, ErrTargetUnavailable) {
		t.Fatalf("Create during outage: %v", err)
	}
	srv.Recover()
	srv.SetFaults(nil)
	if err := Write(r, "img2", payload(64), WriteOptions{Atomic: true, Env: NopEnv()}); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

func TestPublishFaultIsCleanAndRetryable(t *testing.T) {
	l := NewLocal("d", costmodel.Default2005(), nil)
	fp := policy(t, 5, func(fp *FaultPolicy) { fp.PublishFault = 1 })
	l.SetFaults(fp)
	data := payload(512)

	err := Write(l, "img", data, WriteOptions{Atomic: true, Env: NopEnv()})
	if !errors.Is(err, ErrFault) {
		t.Fatalf("err = %v, want ErrFault", err)
	}
	if _, err := l.ReadObject("img", NopEnv()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("final name touched by failed publish: %v", err)
	}
	// The staged bytes are intact, so the retry needs no rewrite — and
	// once the fault clears, the same operation goes through.
	fp.PublishFault = 0
	if err := l.Publish(StagingName("img"), "img", NopEnv()); err != nil {
		t.Fatal(err)
	}
	got, err := l.ReadObject("img", NopEnv())
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("published image wrong: err=%v", err)
	}
	// Publishing a name that was never staged is an error, not a no-op.
	if err := l.Publish(StagingName("ghost"), "ghost", NopEnv()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("publish of missing staging: %v", err)
	}
}

func TestUnsafeWrapper(t *testing.T) {
	l := NewLocal("d", costmodel.Default2005(), nil)
	if Unsafe(nil) != nil {
		t.Fatal("Unsafe(nil) != nil")
	}
	u := Unsafe(l)
	if !IsUnsafe(u) || IsUnsafe(l) {
		t.Fatal("IsUnsafe misclassifies")
	}
	if Unsafe(u) != u {
		t.Fatal("Unsafe not idempotent")
	}
	// The wrapper changes the commit protocol, not the data path.
	if err := Write(u, "img", payload(64), WriteOptions{Atomic: true, Env: NopEnv()}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadObject("img", NopEnv()); err != nil {
		t.Fatal(err)
	}
}

func TestFaultSequenceIsDeterministic(t *testing.T) {
	run := func() (int, int, []int) {
		l := NewLocal("d", costmodel.Default2005(), nil)
		fp := policy(t, 42, func(fp *FaultPolicy) {
			fp.WriteFault = 0.3
			fp.SilentTear = 0.3
		})
		l.SetFaults(fp)
		var sizes []int
		for i := 0; i < 30; i++ {
			_ = Write(l, "img", payload(1000+i), WriteOptions{Env: NopEnv()})
			if n, err := l.ObjectSize("img"); err == nil {
				sizes = append(sizes, n)
			}
		}
		return fp.Crashes, fp.Tears, sizes
	}
	c1, t1, s1 := run()
	c2, t2, s2 := run()
	if c1 != c2 || t1 != t2 {
		t.Fatalf("counters diverge: (%d,%d) vs (%d,%d)", c1, t1, c2, t2)
	}
	if len(s1) != len(s2) {
		t.Fatalf("trajectories diverge: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("object sizes diverge at step %d: %d vs %d", i, s1[i], s2[i])
		}
	}
	if c1 == 0 {
		t.Fatal("no crashes injected at 30% over 30 writes — injection dead")
	}
}
