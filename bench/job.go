package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/detector"
	"repro/internal/mechanism"
	"repro/internal/policy"
	"repro/internal/simos/kernel"
	"repro/internal/simtime"
	"repro/internal/syslevel"
	"repro/internal/trace"
	apps "repro/internal/workload"
)

var jobFailover = &workload{
	name: "job-failover",
	why: "the autonomic system of section 4 end to end: orchestration, failure detection, checkpoint " +
		"policy, buddy replication, lazy restore and application stepping do the work",
	op:         "failover (supervisor's failover to the job's re-admission)",
	simRounds:  10,
	tinyRounds: 2,
	setup:      setupJobFailover,
}

// Each job runs on a fresh five-node cluster: four workers and the
// control node the supervisor and its detector live on.
const (
	jobNodes    = 5
	controlNode = 4
)

// jobRun supervises one job per round under a seeded fault schedule.
type jobRun struct {
	cfg   config
	cm    *costmodel.Model
	prog  kernel.Program
	iters uint64
	mtbf  simtime.Duration
	want  uint64 // fingerprint of the undisturbed reference run
}

func setupJobFailover(cfg config) (roundFunc, error) {
	mib, iters := 2, uint64(1200)
	if cfg.tiny {
		mib, iters = 1, 150
	}
	cm := costmodel.Default2005()
	prog := apps.Sparse{MiB: mib, WriteFrac: 0.05, Seed: derive(cfg.seed, 1)}
	reg := kernel.NewRegistry()
	reg.MustRegister(prog)
	k := kernel.New(kernel.DefaultConfig("reference"), cm, reg)
	p, err := k.Spawn(prog.Name())
	if err != nil {
		return nil, err
	}
	apps.SetIterations(p, iters)
	if !k.RunUntilExit(p, k.Now().Add(simtime.Hour)) {
		return nil, fmt.Errorf("reference run did not finish")
	}
	r := &jobRun{cfg: cfg, cm: cm, prog: traceProgram(prog, cfg.tr), iters: iters,
		mtbf: 10 * simtime.Millisecond, want: apps.Fingerprint(p)}
	return r.round, nil
}

func (r *jobRun) round(i int) (float64, error) {
	rec, tr := r.cfg.rec, r.cfg.tr
	reg := kernel.NewRegistry()
	reg.MustRegister(r.prog)
	c := cluster.New(cluster.Config{Nodes: jobNodes, Seed: int64(derive(r.cfg.seed, uint64(2*i+2))),
		KernelCfg: kernel.DefaultConfig("")}, r.cm, reg)
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: controlNode}, c.Counters)
	var det cluster.FailureDetector = mon
	mk := func() mechanism.Mechanism { return syslevel.NewCRAK() }
	var sessions []*checkpoint.LazySession
	if tr != nil {
		det = tracedDetector{FailureDetector: mon, tr: tr}
		mk = func() mechanism.Mechanism { return wrapMech(syslevel.NewCRAK(), tr, &sessions) }
	}
	log := newJobLog(c)
	sup, err := cluster.NewSupervisor(cluster.SupervisorConfig{
		C:            c,
		MkMech:       mk,
		Prog:         r.prog,
		Iterations:   r.iters,
		Policy:       policy.YoungDaly(5 * simtime.Millisecond),
		Detector:     det,
		ControlNode:  controlNode,
		Incremental:  true,
		RebaseEvery:  8,
		CompactAfter: 6,
		LazyRestore:  true,
		Replication:  &cluster.ReplicationConfig{Mode: cluster.ReplBuddy},
		OnEvent:      log.on,
	})
	if err != nil {
		return 0, err
	}
	// Faults hit the four workers only: a seeded open-loop schedule
	// with 1ms repairs.
	c.SetInjector(cluster.NewInjector(cluster.Exponential{Mean: r.mtbf}, simtime.Millisecond,
		int64(derive(r.cfg.seed, uint64(2*i+3))), controlNode))
	tr.begin("cluster.run")
	runErr := sup.Run(simtime.Minute)
	tr.end()

	rec.attempted++
	if r.cfg.keepEvents {
		rec.events = append(rec.events, cluster.FormatEvents(sup.Events))
	}
	if err := r.check(sup, log, runErr); err != nil {
		logf("job %d: %v", i, err)
		rec.failed++
	}
	for _, v := range log.host {
		rec.host(v)
	}
	for _, v := range log.lost {
		rec.sim(v)
		rec.add("work_lost_sim_ms", v)
	}
	for _, v := range log.resume {
		rec.add("resume_sim_ms", v)
	}
	for _, v := range log.detect {
		rec.add("detect_sim_ms", v)
	}
	for kind, key := range map[cluster.EventKind]string{
		cluster.EvFailover: "failovers", cluster.EvAck: "acks", cluster.EvCompact: "compactions",
		cluster.EvRetire: "retired", cluster.EvRepair: "repairs", cluster.EvScratch: "scratch_restarts",
	} {
		rec.add(key, float64(log.kinds[kind]))
	}
	rec.add("false_failovers", float64(log.falseFailovers))
	rec.add("false_suspicions", float64(c.Counters.Get("det.false_positives")))
	rec.add("final_interval_ms", sup.Policy.Interval().Millis())
	rec.add("recomputes", float64(sup.Policy.Recomputes()))
	ttfi := sup.Metrics.Hist("restore.first_instr_latency").Snapshot()
	rec.addN("lazy.ttfi_sim_ms", ttfi.Mean*float64(ttfi.N), ttfi.N)
	lazy := int(c.Counters.Get("restore.lazy"))
	rec.addN("lazy.faults_served", float64(c.Counters.Get("restore.fault_served")), lazy)
	rec.addN("lazy.prefetched", float64(c.Counters.Get("restore.prefetched")), lazy)
	for _, s := range sessions {
		rec.add("lazy.hot_kib", float64(s.Stats().HotBytes)/1024)
	}
	return sup.Makespan.Millis(), nil
}

// check verifies the job's outcome and cross-checks the work lost the
// event stream implies against the supervisor's own observations.
func (r *jobRun) check(sup *cluster.Supervisor, log *jobLog, runErr error) error {
	switch {
	case runErr != nil:
		return runErr
	case !sup.Completed:
		return fmt.Errorf("did not complete")
	case sup.Fingerprint != r.want:
		return fmt.Errorf("fingerprint %#x, reference %#x", sup.Fingerprint, r.want)
	}
	return workLostAgrees(log.lost, sup.Metrics.Hist("policy.work_lost").Snapshot())
}

// workLostAgrees compares the per-failover work lost derived from events
// with the supervisor's policy.work_lost histogram.
func workLostAgrees(lost []float64, observed trace.HistSnapshot) error {
	sum := 0.0
	for _, v := range lost {
		sum += v
	}
	got := observed.Mean * float64(observed.N)
	if observed.N != len(lost) || math.Abs(got-sum) > 1e-9*math.Max(1, sum) {
		return fmt.Errorf("work lost: events give %d failures, %.6f ms; supervisor observed %d, %.6f ms",
			len(lost), sum, observed.N, got)
	}
	return nil
}

// jobLog derives per-failover samples from the supervisor's events and
// the cluster's ground-truth fault hook.
type jobLog struct {
	c *cluster.Cluster
	// downAt holds, per node, the first fault no failover has answered
	// yet since the job was admitted there (or the admission, when the
	// node was already down).
	downAt map[int]simtime.Time
	// progress is the live incarnation's last ack or admission.
	progress simtime.Time

	open     bool // a failover awaits the job's re-admission
	failSim  simtime.Time
	failHost time.Time

	lost, host, resume, detect []float64
	falseFailovers             int
	kinds                      map[cluster.EventKind]int
}

func newJobLog(c *cluster.Cluster) *jobLog {
	l := &jobLog{c: c, downAt: make(map[int]simtime.Time), kinds: make(map[cluster.EventKind]int)}
	c.OnNodeDown(func(node int) {
		if _, ok := l.downAt[node]; !ok {
			l.downAt[node] = c.Now()
		}
	})
	return l
}

func (l *jobLog) on(ev cluster.Event) {
	l.kinds[ev.Kind]++
	switch ev.Kind {
	case cluster.EvFailover:
		// Work lost: everything since the last durable progress.
		l.lost = append(l.lost, ev.At.Sub(l.progress).Millis())
		if at, ok := l.downAt[ev.Node]; ok {
			l.detect = append(l.detect, ev.At.Sub(at).Millis())
			delete(l.downAt, ev.Node)
		} else {
			l.falseFailovers++
		}
		l.open, l.failSim, l.failHost = true, ev.At, time.Now()
	case cluster.EvAdmit:
		if l.open {
			l.host = append(l.host, ms(time.Since(l.failHost)))
			l.resume = append(l.resume, ev.At.Sub(l.failSim).Millis())
			l.open = false
		}
		l.progress = ev.At
		// A fault before the job arrived is not the job's, unless the
		// node is still down: then the job was placed on a dead machine
		// and its next failover answers that fault.
		delete(l.downAt, ev.Node)
		if !l.c.NodeAlive(ev.Node) {
			l.downAt[ev.Node] = ev.At
		}
	case cluster.EvAck:
		l.progress = ev.At
	}
}
