package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/detector"
	"repro/internal/mechanism"
	"repro/internal/policy"
	"repro/internal/simos/kernel"
	"repro/internal/simtime"
	"repro/internal/syslevel"
	"repro/internal/workload"
)

// e12Detectors is the detector sweep: a ground-truth oracle baseline
// (the pre-autonomic supervisor), fixed timeouts at two settings, and
// the phi-accrual detector at three thresholds.
var e12Detectors = []string{"oracle", "timeout-1ms", "timeout-3ms", "phi-4", "phi-8", "phi-12"}

// E12 measures message-based failure detection end to end: the same
// job, failure schedule, and network run under every detector, once per
// loss rate and once under a 10ms control-plane partition of the job's
// node (the node stays alive — every suspicion of it is false). The
// oracle cases are the unreachable baseline: they read simulator ground
// truth, so loss and partitions cannot touch them. Every autonomic case
// must get safety from epoch fencing instead: double_commits is the
// proof. wasted counts failovers of nodes that were in fact alive,
// fenced the stale-epoch publishes the server rejected, and
// double_commits the stale publishes that landed.
func E12(quick bool) []Record {
	losses := []float64{0, 0.05}
	if quick {
		losses = []float64{0.05}
	}
	rec := &recorder{exp: "E12"}
	record := func(det string, loss float64, partition bool) {
		r := e12Run(det, loss, partition)
		cs := fmt.Sprintf("%s loss %.0f%%", det, loss*100)
		if partition {
			cs = det + " partition 10ms"
		}
		ctr := r.c.Counters
		rec.flag(cs, "completed", r.completed)
		rec.ms(cs, "makespan_ms", r.sup.Makespan.Millis())
		rec.count(cs, "ckpts", int64(r.sup.Checkpoints))
		rec.count(cs, "restarts", int64(r.sup.Restarts))
		rec.count(cs, "wasted", ctr.Get("det.wasted_restarts"))
		lat := 0.0
		n := 0
		if r.mon != nil && r.mon.Latency.N() > 0 {
			lat, n = r.mon.Latency.Mean(), r.mon.Latency.N()
		}
		rec.add(cs, "detect_ms.mean", "ms", n, lat)
		rec.count(cs, "false_pos", ctr.Get("det.false_positives"))
		rec.count(cs, "fenced", ctr.Get("fence.rejected"))
		rec.count(cs, "double_commits", ctr.Get("fence.double_commits"))
	}
	for _, loss := range losses {
		for _, det := range e12Detectors {
			record(det, loss, false)
		}
	}
	for _, det := range e12Detectors {
		record(det, 0, true)
	}
	return rec.done()
}

// e12Result is one supervised E12 run; mon is nil for the oracle.
type e12Result struct {
	c         *cluster.Cluster
	sup       *cluster.Supervisor
	mon       *detector.Monitor
	completed bool
}

// e12Run drives one supervised job under one detector and one network
// scenario.
func e12Run(kind string, loss float64, partition bool) e12Result {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 12}
	reg := kernel.NewRegistry()
	reg.MustRegister(prog)
	c := cluster.New(cluster.Config{Nodes: 4, Seed: 12, KernelCfg: kernel.DefaultConfig("")},
		costmodel.Default2005(), reg)
	np := c.EnableNetFaults(cluster.NetFaultConfig{Loss: loss, DelayJitter: 200 * simtime.Microsecond})
	if partition {
		cut := false
		c.OnStep(func() {
			if !cut && c.Now() >= simtime.Time(7*simtime.Millisecond) {
				cut = true
				np.Partition("island", 0)
			}
			if cut && c.Now() >= simtime.Time(17*simtime.Millisecond) {
				np.Heal("island")
			}
		})
	}

	period := 200 * simtime.Microsecond
	var d detector.Detector
	switch kind {
	case "timeout-1ms":
		d = detector.NewTimeout(simtime.Millisecond)
	case "timeout-3ms":
		d = detector.NewTimeout(3 * simtime.Millisecond)
	case "phi-4":
		d = detector.NewPhiAccrual(4, 64, period/2)
	case "phi-8":
		d = detector.NewPhiAccrual(8, 64, period/2)
	case "phi-12":
		d = detector.NewPhiAccrual(12, 64, period/2)
	}

	cfg := cluster.SupervisorConfig{
		C:          c,
		MkMech:     func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:       prog,
		Iterations: 300,
		Policy:     policy.Fixed(3 * simtime.Millisecond),
	}
	var mon *detector.Monitor
	if d != nil {
		mon = detector.NewMonitor(c, d, detector.Config{Period: period, Observer: 3}, c.Counters)
		cfg.Detector = mon
		cfg.ControlNode = 3
	}
	sup := cluster.MustNewSupervisor(cfg)
	// Real (transient) failures on the three worker nodes; the observer
	// stays up — a failing control plane is a different experiment.
	inj := cluster.NewInjector(cluster.Exponential{Mean: 40 * simtime.Millisecond},
		3*simtime.Millisecond, 33, 3)
	c.SetInjector(inj)

	err := sup.Run(5 * simtime.Second)
	return e12Result{c: c, sup: sup, mon: mon, completed: err == nil && sup.Completed}
}
