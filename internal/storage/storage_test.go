package storage

import (
	"errors"
	"testing"

	"repro/internal/costmodel"
)

// testTarget is one row of the target table: the target and the switch
// that takes it down (its node's liveness, or its server's outage).
type testTarget struct {
	T    Target
	down func()
}

func targets(t *testing.T) map[string]testTarget {
	t.Helper()
	cm := costmodel.Default2005()
	srv := NewServer("ckpt-srv", cm)
	diskUp, ramUp := true, true
	return map[string]testTarget{
		"local":  {NewLocal("disk0", cm, func() bool { return diskUp }), func() { diskUp = false }},
		"remote": {NewRemote("net0", srv), srv.Fail},
		"memory": {NewMemory("ram0", func() bool { return ramUp }), func() { ramUp = false }},
	}
}

func writeObject(t *testing.T, tgt Target, name string, data []byte, env *Env) {
	t.Helper()
	w, err := tgt.Create(name, env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripAllTargets(t *testing.T) {
	for kind, tc := range targets(t) {
		tgt := tc.T
		data := []byte("checkpoint image " + kind)
		writeObject(t, tgt, "obj1", data, NopEnv())
		got, err := tgt.ReadObject("obj1", NopEnv())
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if string(got) != string(data) {
			t.Fatalf("%s: got %q", kind, got)
		}
		if sz, err := tgt.ObjectSize("obj1"); err != nil || sz != len(data) {
			t.Fatalf("%s: size %d %v", kind, sz, err)
		}
		if lst := tgt.List(); len(lst) != 1 || lst[0] != "obj1" {
			t.Fatalf("%s: list %v", kind, lst)
		}
		if err := tgt.Delete("obj1"); err != nil {
			t.Fatal(err)
		}
		if _, err := tgt.ReadObject("obj1", NopEnv()); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: read after delete: %v", kind, err)
		}
		if err := tgt.Delete("obj1"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: double delete: %v", kind, err)
		}
	}
}

func TestAbortDiscards(t *testing.T) {
	for kind, tc := range targets(t) {
		tgt := tc.T
		w, _ := tgt.Create("x", NopEnv())
		w.Write([]byte("partial"))
		w.Abort()
		if _, err := tgt.ReadObject("x", NopEnv()); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: aborted object visible: %v", kind, err)
		}
	}
}

func TestCommitIsAtomic(t *testing.T) {
	tgt := NewLocal("d", costmodel.Default2005(), nil)
	w, _ := tgt.Create("obj", NopEnv())
	w.Write([]byte("half"))
	// Not yet committed: invisible.
	if _, err := tgt.ReadObject("obj", NopEnv()); !errors.Is(err, ErrNotFound) {
		t.Fatal("uncommitted object visible")
	}
	w.Commit()
	if err := w.Commit(); err == nil {
		t.Fatal("double commit accepted")
	}
	if _, err := w.Write([]byte("more")); err == nil {
		t.Fatal("write after commit accepted")
	}
}

// TestDownTargetRefusesEveryOperation: once a target goes down, every
// operation fails with ErrTargetUnavailable on every kind — including
// Write and Commit on a writer opened while it was still up.
func TestDownTargetRefusesEveryOperation(t *testing.T) {
	for kind, tc := range targets(t) {
		tgt := tc.T
		writeObject(t, tgt, "ck", []byte("data"), NopEnv())
		writeObject(t, tgt, StagingName("st"), []byte("staged"), NopEnv())
		wWrite, err := tgt.Create("late-write", NopEnv())
		if err != nil {
			t.Fatal(err)
		}
		wCommit, err := tgt.Create("late-commit", NopEnv())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wCommit.Write([]byte("bytes")); err != nil {
			t.Fatal(err)
		}
		tc.down()
		if tgt.Available() {
			t.Fatalf("%s: down target available", kind)
		}
		_, createErr := tgt.Create("new", NopEnv())
		_, readErr := tgt.ReadObject("ck", NopEnv())
		_, sizeErr := tgt.ObjectSize("ck")
		_, writeErr := wWrite.Write([]byte("bytes"))
		var batchErr error
		if br, ok := tgt.(BatchReader); ok {
			_, batchErr = br.ReadBatch([]string{"ck"}, NopEnv())
		} else {
			batchErr = errors.New("not a BatchReader")
		}
		for op, err := range map[string]error{
			"Create":     createErr,
			"ReadObject": readErr,
			"ReadBatch":  batchErr,
			"Delete":     tgt.Delete("ck"),
			"ObjectSize": sizeErr,
			"Publish":    tgt.Publish(StagingName("st"), "st", NopEnv()),
			"Write":      writeErr,
			"Commit":     wCommit.Commit(),
		} {
			if !errors.Is(err, ErrTargetUnavailable) {
				t.Errorf("%s: %s on a down target: %v", kind, op, err)
			}
		}
	}
}

func TestLocalDiesWithNode(t *testing.T) {
	alive := true
	tgt := NewLocal("disk0", costmodel.Default2005(), func() bool { return alive })
	writeObject(t, tgt, "ck", []byte("data"), NopEnv())
	alive = false
	if tgt.Available() {
		t.Fatal("dead node's disk available")
	}
	if _, err := tgt.ReadObject("ck", NopEnv()); !errors.Is(err, ErrTargetUnavailable) {
		t.Fatalf("read from dead node: %v", err)
	}
	if _, err := tgt.Create("new", NopEnv()); !errors.Is(err, ErrTargetUnavailable) {
		t.Fatal("create on dead node accepted")
	}
	// Node comes back (reboot): data intact — restart after power outage,
	// the limited FT case the paper concedes to local storage.
	alive = true
	got, err := tgt.ReadObject("ck", NopEnv())
	if err != nil || string(got) != "data" {
		t.Fatalf("after reboot: %q %v", got, err)
	}
}

func TestRemoteSurvivesWriterDeath(t *testing.T) {
	cm := costmodel.Default2005()
	srv := NewServer("s", cm)
	nodeA := NewRemote("a", srv)
	writeObject(t, nodeA, "ck", []byte("img"), NopEnv())
	// Node A is gone; node B can still read the checkpoint.
	nodeB := NewRemote("b", srv)
	got, err := nodeB.ReadObject("ck", NopEnv())
	if err != nil || string(got) != "img" {
		t.Fatalf("remote read from other node: %q %v", got, err)
	}
	srv.Fail()
	if nodeB.Available() {
		t.Fatal("failed server available")
	}
	srv.Recover()
	if _, err := nodeB.ReadObject("ck", NopEnv()); err != nil {
		t.Fatal("server data lost across recovery")
	}
}

func TestMemoryDropsOnPowerLoss(t *testing.T) {
	m := NewMemory("ram", nil)
	writeObject(t, m, "standby", []byte("x"), NopEnv())
	m.Wipe()
	if _, err := m.ReadObject("standby", NopEnv()); !errors.Is(err, ErrNotFound) {
		t.Fatal("memory target survived power loss")
	}
}

func TestCostAccounting(t *testing.T) {
	cm := costmodel.Default2005()
	led := costmodel.NewLedger()
	env := LedgerEnv(led)

	local := NewLocal("d", cm, nil)
	writeObject(t, local, "o", make([]byte, 1<<20), env)
	localTime := led.Total
	if localTime < cm.DiskSeek {
		t.Fatalf("local write cost %v < one seek", localTime)
	}

	led.Reset()
	srv := NewServer("s", cm)
	remote := NewRemote("r", srv)
	writeObject(t, remote, "o", make([]byte, 1<<20), env)
	remoteTime := led.Total
	if remoteTime <= localTime {
		t.Fatalf("remote (%v) should cost more than local (%v) for same bytes", remoteTime, localTime)
	}

	led.Reset()
	memT := NewMemory("m", nil)
	writeObject(t, memT, "o", make([]byte, 1<<20), env)
	if led.Total != 0 {
		t.Fatalf("memory target charged %v", led.Total)
	}
}

func TestCostScalesWithSize(t *testing.T) {
	cm := costmodel.Default2005()
	led := costmodel.NewLedger()
	env := LedgerEnv(led)
	local := NewLocal("d", cm, nil)
	writeObject(t, local, "small", make([]byte, 1<<20), env)
	small := led.Total
	led.Reset()
	writeObject(t, local, "big", make([]byte, 16<<20), env)
	big := led.Total
	if big < 8*small {
		t.Fatalf("16× data cost only %v vs %v", big, small)
	}
}
