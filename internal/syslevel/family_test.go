package syslevel

import (
	"hash/fnv"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/mechanism"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/workload"
)

// optionalInterfaces returns the bitmask of optional mechanism interfaces
// m exposes: delta requests 1, capture width 2, restore width 4, lazy
// restart 8 (the order bench's mechanism wrapper uses).
func optionalInterfaces(m mechanism.Mechanism) int {
	mask := 0
	if _, ok := m.(mechanism.DeltaRequester); ok {
		mask |= 1
	}
	if _, ok := m.(mechanism.CaptureParallelizer); ok {
		mask |= 2
	}
	if _, ok := m.(mechanism.RestoreParallelizer); ok {
		mask |= 4
	}
	if _, ok := m.(mechanism.LazyRestarter); ok {
		mask |= 8
	}
	return mask
}

// TestKernelThreadFamily pins what every kernel-thread mechanism shares:
// module install and unload, the optional interfaces, and one width-1
// checkpoint/restart round trip's encoded image, capture time and
// restart time on the simulated clock.
func TestKernelThreadFamily(t *testing.T) {
	cases := []struct {
		mk      func() mechanism.Mechanism
		module  string
		nodes   []string // device node, then any /proc entry
		remote  bool     // checkpoint to the remote server (else local disk; ZAP: none)
		mask    int
		imgHash uint64
		capture simtime.Duration // the kernel thread's capture
		total   simtime.Duration // request to completion
		restart simtime.Duration
	}{
		{func() mechanism.Mechanism { return NewCRAK() }, "crak", []string{"/dev/crak"}, false, 15, 0x816a02f6b4878408, 1539630, 1544630, 1539413},
		{func() mechanism.Mechanism { return NewUCLiK() }, "uclik", []string{"/dev/uclik"}, false, 14, 0x680647145fee0f79, 1539630, 1544630, 1539413},
		{func() mechanism.Mechanism { return NewZAP() }, "zap", []string{"/dev/zap"}, false, 14, 0x4ab6c5209365ef27, 1539630, 1544630, 1539413},
		{func() mechanism.Mechanism { return NewPsncRC() }, "psncrc", []string{"/dev/psncrc", "/proc/psncrc"}, false, 14, 0x98638ad2f3bf3f5f, 1539630, 1544630, 1539413},
		{func() mechanism.Mechanism { return NewBLCR() }, "blcr", []string{"/dev/blcr"}, true, 14, 0x554583c8b300da02, 1539630, 1550630, 1539413},
		{func() mechanism.Mechanism { return NewLAMMPI() }, "blcr", []string{"/dev/blcr"}, false, 14, 0xffc1dcd57bfe368a, 1539630, 1550630, 1539413},
		{func() mechanism.Mechanism { return NewTICK() }, "tick", []string{"/dev/tick"}, true, 15, 0xb3728a38f5adc17, 1805892, 1810892, 1805653},
	}
	prog := workload.Sparse{MiB: 2, WriteFrac: 0.2, Seed: 9}
	for _, c := range cases {
		c := c
		t.Run(c.mk().Name(), func(t *testing.T) {
			m := c.mk()
			if got := optionalInterfaces(m); got != c.mask {
				t.Errorf("exposes %04b, want %04b", got, c.mask)
			}

			// Install is idempotent; Unload takes every node with it.
			k := newMachine("mod", prog)
			for i := 0; i < 2; i++ {
				if err := m.Install(k); err != nil {
					t.Fatalf("install %d: %v", i+1, err)
				}
			}
			if !k.ModuleLoaded(c.module) {
				t.Fatalf("module %q not loaded", c.module)
			}
			for _, n := range c.nodes {
				if !k.FS.Exists(n) {
					t.Fatalf("%s missing after install", n)
				}
			}
			if err := k.UnloadModule(c.module); err != nil {
				t.Fatal(err)
			}
			for _, n := range c.nodes {
				if k.FS.Exists(n) {
					t.Fatalf("%s left behind by unload", n)
				}
			}

			imgHash, tk, restart := familyRoundTrip(t, c.mk(), prog, c.remote)
			if imgHash != c.imgHash || tk.CaptureTime() != c.capture || tk.Total() != c.total || restart != c.restart {
				t.Errorf("round trip: image %#x, capture %d ns, total %d ns, restart %d ns; want %#x, %d ns, %d ns, %d ns",
					imgHash, int64(tk.CaptureTime()), int64(tk.Total()), int64(restart),
					c.imgHash, int64(c.capture), int64(c.total), int64(c.restart))
			}
		})
	}
}

// familyRoundTrip checkpoints prog halfway through at capture and
// restore width 1 and restarts it on a fresh machine. It returns the
// FNV-64 of the encoded image, the checkpoint's ticket and the simulated
// time Restart charged.
func familyRoundTrip(t *testing.T, m mechanism.Mechanism, prog kernel.Program, remote bool) (uint64, *mechanism.Ticket, simtime.Duration) {
	t.Helper()
	const iters = 20
	m.(mechanism.CaptureParallelizer).SetCaptureParallelism(1)
	m.(mechanism.RestoreParallelizer).SetRestoreParallelism(1)
	prepared := m.Prepare(prog)
	k := newMachine("src", prepared)
	if err := m.Install(k); err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn(prepared.Name())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Setup(k, p); err != nil {
		t.Fatal(err)
	}
	workload.SetIterations(p, iters)
	runIterations(k, p, iters/2)
	if p.State == proc.StateZombie {
		t.Fatal("finished before checkpoint")
	}
	var tgt storage.Target
	if m.Name() != "ZAP" {
		tgt = localTarget()
		if remote {
			tgt = remoteTarget()
		}
	}
	tk, err := mechanism.Checkpoint(m, k, p, tgt, nil)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	blob, err := tk.Img.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(blob)

	dst := newMachine("dst", prepared)
	if err := m.Install(dst); err == nil {
		t.Fatal("a loaded module installed on a second kernel")
	}
	start := dst.Now()
	if _, err := m.Restart(dst, []*checkpoint.Image{tk.Img}, true); err != nil {
		t.Fatalf("restart: %v", err)
	}
	return h.Sum64(), tk, dst.Now().Sub(start)
}
