package experiments

import (
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/mechanism"
	"repro/internal/policy"
	"repro/internal/simos/kernel"
	"repro/internal/simtime"
	"repro/internal/syslevel"
	"repro/internal/workload"
)

// E11 measures crash consistency of the checkpoint path itself: a
// detailed-cluster job runs to completion under fail-stop node failures
// while every storage write can crash mid-transfer (10% per write), be
// silently truncated, or hit a server outage. The contrast is the
// commit protocol — atomic (stage + durability barrier + publish) vs
// the legacy in-place write — on otherwise identical clusters with the
// same seed. torn_at_restore and lost count corrupt or vanished images
// hit by recovery; torn_disk counts committed images that no longer
// decode; debris counts unpublished staging objects. damaged_images is
// the sum of the first three.
func E11(quick bool) []Record {
	_ = quick // one fixed-size run per protocol
	rec := &recorder{exp: "E11"}
	for _, unsafe := range []bool{false, true} {
		e11Run(rec, 0.10, unsafe)
	}
	return rec.done()
}

// e11Run drives one Supervisor job over storage faults and records it.
// Both commit modes build identical clusters from the same seed, so
// every divergence between them traces back to the protocol.
func e11Run(rec *recorder, writeFault float64, unsafeCommit bool) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 11}
	reg := kernel.NewRegistry()
	reg.MustRegister(prog)
	c := cluster.New(cluster.Config{Nodes: 3, Seed: 11, KernelCfg: kernel.DefaultConfig("")},
		costmodel.Default2005(), reg)
	c.EnableStorageFaults(cluster.StorageFaultConfig{
		WriteFault:   writeFault,
		OutageFrac:   0.25,
		SilentTear:   writeFault,
		PublishFault: writeFault / 5,
		// Outages outlast the 5ms checkpoint interval, so a round that
		// meets one takes the local-disk fallback instead of just waiting
		// the server out.
		ServerRepair: 20 * simtime.Millisecond,
	})
	inj := cluster.NewInjector(cluster.Exponential{Mean: 40 * simtime.Millisecond},
		3*simtime.Millisecond, 21, 3)
	c.SetInjector(inj)
	sup := cluster.MustNewSupervisor(cluster.SupervisorConfig{
		C:             c,
		MkMech:        func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:          prog,
		Iterations:    600,
		Policy:        policy.Fixed(5 * simtime.Millisecond),
		LocalFallback: true,
		UnsafeCommit:  unsafeCommit,
	})
	err := sup.Run(10 * simtime.Second)
	cs := "atomic"
	if unsafeCommit {
		cs = "unsafe"
	}

	// End-of-run integrity sweep: decode every committed image left on the
	// server and the node disks. Atomic commit guarantees tornDisk == 0 —
	// a crash can only tear a staging object, which the sweep counts as
	// debris, never as an image.
	var tornDisk, debris int
	if c.Server != nil {
		_, tn, st := checkpoint.Audit(c.Node(0).Remote())
		tornDisk += tn
		debris += st
	}
	for _, n := range c.Nodes() {
		if !n.Alive() {
			continue
		}
		_, tn, st := checkpoint.Audit(n.Disk)
		tornDisk += tn
		debris += st
	}
	torn, lost := sup.Counters().Get("ckpt.torn"), sup.Counters().Get("ckpt.lost")
	rec.flag(cs, "completed", err == nil && sup.Completed)
	rec.ms(cs, "makespan_ms", sup.Makespan.Millis())
	rec.count(cs, "ckpts", int64(sup.Checkpoints))
	rec.count(cs, "restarts", int64(sup.Restarts))
	rec.count(cs, "ckpt_failed", sup.Counters().Get("agent.ckpt_failed"))
	rec.count(cs, "fellback", sup.Counters().Get("ckpt.fellback"))
	rec.count(cs, "torn_at_restore", torn)
	rec.count(cs, "lost", lost)
	rec.count(cs, "torn_disk", int64(tornDisk))
	rec.count(cs, "debris", int64(debris))
	rec.count(cs, "damaged_images", torn+lost+int64(tornDisk))
}
