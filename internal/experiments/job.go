package experiments

import (
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/detector"
	"repro/internal/mechanism"
	"repro/internal/simos/kernel"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/syslevel"
	"repro/internal/workload"
)

// newJob builds the autonomic job E14–E20 share: a 1 MiB sparse
// workload on a 4-node cluster, a 2 ms timeout detector observed from
// node 3, and a CRAK supervisor on control node 3. cfg carries the
// experiment's own policy fields; newJob fills in the rest.
func newJob(seed int64, writeFrac float64, iters int, cfg cluster.SupervisorConfig) (*cluster.Cluster, *cluster.Supervisor) {
	prog := workload.Sparse{MiB: 1, WriteFrac: writeFrac, Seed: uint64(seed)}
	reg := kernel.NewRegistry()
	reg.MustRegister(prog)
	c := cluster.New(cluster.Config{Nodes: 4, Seed: seed, KernelCfg: kernel.DefaultConfig("")},
		costmodel.Default2005(), reg)
	cfg.C = c
	cfg.MkMech = func() mechanism.Mechanism { return syslevel.NewCRAK() }
	cfg.Prog = prog
	cfg.Iterations = uint64(iters)
	cfg.Detector = detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 3}, c.Counters)
	cfg.ControlNode = 3
	return c, cluster.MustNewSupervisor(cfg)
}

// clusterIters is the job length of the E15–E20 cluster runs.
func clusterIters(quick bool) int {
	if quick {
		return 500
	}
	return 2000
}

// killTwice scripts two failures of the job's node, so a run always
// measures real failover restores (a stochastic injector could fire
// before the first publish and measure scratch restarts instead): the
// first once `after` events of kind trigger have fired, the second 15 ms
// later. Each killed node reboots 2 ms after its kill.
func killTwice(c *cluster.Cluster, sup *cluster.Supervisor, trigger cluster.EventKind, after int) {
	jobNode, seen := 0, 0
	sup.OnEvent = func(ev cluster.Event) {
		switch ev.Kind {
		case cluster.EvAdmit:
			jobNode = ev.Node
		case trigger:
			seen++
		}
	}
	fails := 0
	var nextFail simtime.Time
	rebootNode, rebootAt := -1, simtime.Time(0)
	c.OnStep(func() {
		if rebootNode >= 0 && c.Now() >= rebootAt {
			c.Reboot(rebootNode)
			rebootNode = -1
		}
		armed := (fails == 0 && seen >= after) || (fails == 1 && c.Now() >= nextFail)
		if fails < 2 && armed && c.NodeAlive(jobNode) {
			fails++
			c.Fail(jobNode)
			rebootNode, rebootAt = jobNode, c.Now().Add(2*simtime.Millisecond)
			nextFail = c.Now().Add(15 * simtime.Millisecond)
		}
	})
}

// twin is what a fingerprint comparison needs from one cluster run.
type twin struct {
	completed   bool
	fingerprint uint64
}

// matches reports whether both runs completed at the same fingerprint.
func (a twin) matches(b twin) bool {
	return a.completed && b.completed && a.fingerprint == b.fingerprint
}

// finalChain reads the job's recovery chain back from the control
// node's server — the restore a failure at end of run would pay — and
// returns its length and the modeled storage read time.
func finalChain(c *cluster.Cluster, sup *cluster.Supervisor) (int, float64, error) {
	env, wait := waitEnv()
	chain, err := checkpoint.LoadChain(c.Node(3).Remote(), env, sup.LastLeaf())
	if err != nil {
		return 0, 0, err
	}
	return len(chain), wait.Millis(), nil
}

// waitEnv returns a storage environment that sums the simulated waits
// billed through it into the returned duration.
func waitEnv() (*storage.Env, *simtime.Duration) {
	wait := new(simtime.Duration)
	return &storage.Env{Bill: costmodel.Discard{},
		Wait: func(d simtime.Duration, _ string) { *wait += d }}, wait
}
