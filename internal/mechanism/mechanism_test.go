package mechanism

import (
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/costmodel"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

func TestTicketTimings(t *testing.T) {
	tk := &Ticket{RequestedAt: 100, StartedAt: 250, CompletedAt: 1000}
	if tk.InitiationDelay() != 150 {
		t.Fatalf("InitiationDelay = %v", tk.InitiationDelay())
	}
	if tk.CaptureTime() != 750 {
		t.Fatalf("CaptureTime = %v", tk.CaptureTime())
	}
	if tk.Total() != 900 {
		t.Fatalf("Total = %v", tk.Total())
	}
}

// TestCoreChainBookkeeping pins the per-process chain behind Capture:
// sequence numbers count per PID, a delta's parent is the last committed
// image, a failed capture uses up its number without becoming a parent,
// and a rebase clears the parent but not the count.
func TestCoreChainBookkeeping(t *testing.T) {
	prog := workload.Dense{MiB: 1}
	reg := kernel.NewRegistry()
	reg.MustRegister(prog)
	k := kernel.New(kernel.DefaultConfig("k"), costmodel.Default2005(), reg)
	c := NewCore(Rules{Features: taxonomy.Features{Name: "test"}})
	if err := c.Bind(k, nil); err != nil {
		t.Fatal(err)
	}
	p, _ := k.Spawn(prog.Name())
	other, _ := k.Spawn(prog.Name())
	trk := checkpoint.NewKernelWPTracker(k, p)
	if err := trk.Arm(); err != nil {
		t.Fatal(err)
	}
	defer trk.Close()
	tgt := storage.NewLocal("disk0", costmodel.Default2005(), nil)
	capture := func(p *proc.Process, d *Delta, seq uint64, parent string) *checkpoint.Image {
		t.Helper()
		img, _, err := c.Capture(k, checkpoint.Request{Acc: &checkpoint.KernelAccessor{K: k, P: p}, Target: tgt}, d)
		if err != nil {
			t.Fatal(err)
		}
		if img.Seq != seq || img.Parent != parent || img.Mechanism != "test" || img.Hostname != "k" {
			t.Fatalf("image %s/%s seq %d parent %q, want test/k seq %d parent %q", img.Mechanism, img.Hostname, img.Seq, img.Parent, seq, parent)
		}
		return img
	}
	first := capture(p, &Delta{Trk: trk}, 1, "")
	second := capture(p, &Delta{Trk: trk}, 2, first.ObjectName())
	capture(other, nil, 1, "")

	tgt.SetFaults(&storage.FaultPolicy{WriteFault: 1, Rng: rand.New(rand.NewSource(1))})
	if _, _, err := c.Capture(k, checkpoint.Request{Acc: &checkpoint.KernelAccessor{K: k, P: p}, Target: tgt}, &Delta{Trk: trk}); err == nil {
		t.Fatal("capture onto a faulting target succeeded")
	}
	tgt.SetFaults(nil)
	capture(p, &Delta{Trk: trk}, 4, second.ObjectName())
	rebased := capture(p, &Delta{Rebase: true}, 5, "")
	capture(p, &Delta{Trk: trk}, 6, rebased.ObjectName())
}

func TestWaitTicketTimesOut(t *testing.T) {
	k := kernel.New(kernel.DefaultConfig("k"), costmodel.Default2005(), kernel.NewRegistry())
	tk := &Ticket{}
	if err := WaitTicket(k, tk, 5*simtime.Millisecond); err == nil {
		t.Fatal("WaitTicket on a never-done ticket returned nil")
	}
	tk.Done = true
	if err := WaitTicket(k, tk, simtime.Millisecond); err != nil {
		t.Fatalf("done ticket: %v", err)
	}
}

func TestKernelEnvAdvancesTime(t *testing.T) {
	k := kernel.New(kernel.DefaultConfig("k"), costmodel.Default2005(), kernel.NewRegistry())
	env := KernelEnv(k, nil)
	before := k.Now()
	env.Wait(3*simtime.Millisecond, "disk")
	if k.Now().Sub(before) < 3*simtime.Millisecond {
		t.Fatal("Wait did not advance simulated time")
	}
	env.Bill.Charge(simtime.Millisecond, "x")
	if k.Now().Sub(before) < 4*simtime.Millisecond {
		t.Fatal("Bill did not advance simulated time")
	}
}
