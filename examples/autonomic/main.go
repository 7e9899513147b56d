// Autonomic fault tolerance (§1): a long job runs on a cluster whose
// nodes fail (fail-stop, exponential MTBF). A supervisor checkpoints the
// job through CRAK to the remote checkpoint server with a Young-interval
// policy driven by the online MTBF estimate, and restarts it on a spare
// node after each failure. The same run with node-local storage shows why
// Table 1's local-only mechanisms provide only rudimentary fault
// tolerance.
//
// The final run drops the simulator's failure oracle entirely: liveness
// comes from phi-accrual suspicion over lossy heartbeats, a partition
// fakes a node death mid-run, and epoch fencing keeps the resulting
// split brain from ever committing a stale checkpoint.
//
//	go run ./examples/autonomic
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/cluster"
	"repro/internal/detector"
)

func main() {
	run()
	runDetectorDriven()
}

func run() {
	app := repro.Sparse{MiB: 8, WriteFrac: 0.1, Seed: 3}
	const iterations = 200

	for _, useLocal := range []bool{false, true} {
		reg := repro.NewRegistry()
		reg.MustRegister(app)
		c := repro.NewCluster(8, 7, reg)
		inj := cluster.NewInjector(cluster.Exponential{Mean: 200 * repro.Millisecond},
			3*repro.Millisecond, 13, 8)
		inj.PermanentFrac = 0.2
		c.SetInjector(inj)

		sup := repro.MustNewSupervisor(repro.SupervisorConfig{
			C:            c,
			MkMech:       func() repro.Mechanism { return repro.NewCRAK() },
			Prog:         app,
			Iterations:   iterations,
			Policy:       repro.YoungDalyPolicy(8 * repro.Millisecond),
			UseLocalDisk: useLocal,
		})
		if err := sup.Run(5 * repro.Second); err != nil {
			log.Fatal(err)
		}
		where := "remote server"
		if useLocal {
			where = "node-local disks"
		}
		fmt.Printf("checkpoints → %s\n", where)
		fmt.Printf("  completed: %v in %v simulated\n", sup.Completed, sup.Makespan)
		fmt.Printf("  checkpoints: %d, restarts: %d (from scratch: %d), failures seen: %d\n",
			sup.Checkpoints, sup.Restarts, sup.FromScratch, sup.Policy.Estimator().Failures())
		fmt.Printf("  online MTBF estimate: %v\n\n", sup.Policy.Estimator().Estimate())
	}
}

// runDetectorDriven is the §5 "direction forward" demo: no oracle, a
// faulty network, and fencing as the safety net.
func runDetectorDriven() {
	app := repro.Sparse{MiB: 4, WriteFrac: 0.1, Seed: 3}
	reg := repro.NewRegistry()
	reg.MustRegister(app)
	c := repro.NewCluster(5, 7, reg)
	np := c.EnableNetFaults(cluster.NetFaultConfig{Loss: 0.03, DelayJitter: 200 * repro.Microsecond})

	period := 200 * repro.Microsecond
	mon := detector.NewMonitor(c, detector.NewPhiAccrual(8, 64, period/2),
		detector.Config{Period: period, Observer: 4}, c.Counters)

	// Real failures on the workers — plus one lie: a 12ms partition that
	// cuts the job's node off from the control plane while it keeps
	// running and keeps trying to checkpoint.
	inj := cluster.NewInjector(cluster.Exponential{Mean: 150 * repro.Millisecond},
		3*repro.Millisecond, 13, 4)
	c.SetInjector(inj)
	cut := false
	c.OnStep(func() {
		if !cut && c.Now() >= repro.Time(20*repro.Millisecond) {
			cut = true
			np.Partition("lie", 0)
		}
		if cut && c.Now() >= repro.Time(32*repro.Millisecond) {
			np.Heal("lie")
		}
	})

	sup := repro.MustNewSupervisor(repro.SupervisorConfig{
		C:           c,
		MkMech:      func() repro.Mechanism { return repro.NewCRAK() },
		Prog:        app,
		Iterations:  120,
		Policy:      repro.FixedPolicy(4 * repro.Millisecond),
		Detector:    mon,
		ControlNode: 4,
	})
	if err := sup.Run(5 * repro.Second); err != nil {
		log.Fatal(err)
	}
	ctr := c.Counters
	fmt.Printf("detector-driven (phi-accrual, 3%% heartbeat loss, one 12ms partition)\n")
	fmt.Printf("  completed: %v in %v simulated; checkpoints: %d, restarts: %d\n",
		sup.Completed, sup.Makespan, sup.Checkpoints, sup.Restarts)
	fmt.Printf("  suspicions: %d (false: %d), detections: %d, wasted restarts: %d\n",
		ctr.Get("det.suspicions"), ctr.Get("det.false_positives"),
		ctr.Get("det.detections"), ctr.Get("det.wasted_restarts"))
	fmt.Printf("  fencing: epochs %d, stale publishes rejected %d, self-fenced writers %d, double commits %d\n",
		ctr.Get("fence.epochs"), ctr.Get("fence.rejected"),
		ctr.Get("fence.suicides"), ctr.Get("fence.double_commits"))
	fmt.Printf("  oracle reads in the decision path: %d\n", sup.OracleReads)
}
