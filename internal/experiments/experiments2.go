package experiments

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/hardware"
	"repro/internal/mechanism"
	"repro/internal/mpi"
	"repro/internal/policy"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/syslevel"
	"repro/internal/trace"
	"repro/internal/userlevel"
	"repro/internal/workload"
)

// E5Storage reproduces §4.1's fault-tolerance argument about storage
// placement: with permanent node failures in the mix, local-only
// checkpoints (most of Table 1) protect far less than remote ones.
func E5Storage(mtbfHours []float64) *trace.Table {
	tb := trace.NewTable(
		"E5 — job makespan vs MTBF by checkpoint storage policy (48h job, 50% permanent failures)",
		"MTBF(h)", "policy", "makespan(h)", "lost-work(h)", "restarts", "utilization")
	for _, mh := range mtbfHours {
		mtbf := simtime.Duration(mh * float64(simtime.Hour))
		for _, pol := range []cluster.StoragePolicy{cluster.StoreNone, cluster.StoreLocal, cluster.StoreRemote} {
			cfg := cluster.JobConfig{
				Work:          48 * simtime.Hour,
				CkptCost:      3 * simtime.Minute,
				RestartCost:   2 * simtime.Minute,
				RepairTime:    10 * simtime.Minute,
				Storage:       pol,
				PermanentFrac: 0.5,
			}
			if pol != cluster.StoreNone {
				cfg.Policy = policy.Fixed(cluster.YoungInterval(cfg.CkptCost, mtbf))
			}
			r := cluster.AverageResult(cfg, cluster.Exponential{Mean: mtbf}, 99, 40)
			mk := "∞"
			if r.Completed {
				mk = fmt.Sprintf("%.1f", float64(r.Makespan)/float64(simtime.Hour))
			}
			tb.Row(mh, pol.String(), mk,
				fmt.Sprintf("%.2f", float64(r.LostWork)/float64(simtime.Hour)),
				r.Restarts, fmt.Sprintf("%.3f", r.Utilization))
		}
	}
	tb.Note("paper §4.1: \"most store the checkpoint locally ... thus checkpoint data cannot be")
	tb.Note("retrieved in case of a failure of the machine\"")
	return tb
}

// E6Interval reproduces the §1 autonomic-interval claim: a sweep of fixed
// intervals brackets Young's optimum, and the adaptive (online-estimate)
// policy approaches the oracle from a wrong prior.
func E6Interval(mtbfHours float64) *trace.Table {
	mtbf := simtime.Duration(mtbfHours * float64(simtime.Hour))
	cfg := cluster.JobConfig{
		Work:        72 * simtime.Hour,
		CkptCost:    3 * simtime.Minute,
		RestartCost: 2 * simtime.Minute,
		RepairTime:  5 * simtime.Minute,
		Storage:     cluster.StoreRemote,
	}
	opt := cluster.YoungInterval(cfg.CkptCost, mtbf)
	tb := trace.NewTable(
		fmt.Sprintf("E6 — checkpoint interval sweep (72h job, MTBF %.0fh, δ=3min; Young opt = %.0f min)",
			mtbfHours, float64(opt)/float64(simtime.Minute)),
		"interval(min)", "policy", "makespan(h)", "ckpt-overhead(h)", "lost-work(h)")
	for _, mult := range []float64{0.125, 0.25, 0.5, 1, 2, 4, 8} {
		iv := simtime.Duration(float64(opt) * mult)
		c := cfg
		c.Policy = policy.Fixed(iv)
		r := cluster.AverageResult(c, cluster.Exponential{Mean: mtbf}, 7, 40)
		label := "fixed"
		if mult == 1 {
			label = "fixed(=Young)"
		}
		tb.Row(fmt.Sprintf("%.0f", float64(iv)/float64(simtime.Minute)), label,
			fmt.Sprintf("%.2f", float64(r.Makespan)/float64(simtime.Hour)),
			fmt.Sprintf("%.2f", float64(r.CkptOverhead)/float64(simtime.Hour)),
			fmt.Sprintf("%.2f", float64(r.LostWork)/float64(simtime.Hour)))
	}
	d := cfg
	daly := cluster.DalyInterval(cfg.CkptCost, mtbf)
	d.Policy = policy.Fixed(daly)
	rd := cluster.AverageResult(d, cluster.Exponential{Mean: mtbf}, 7, 40)
	tb.Row(fmt.Sprintf("%.0f", float64(daly)/float64(simtime.Minute)), "fixed(=Daly)",
		fmt.Sprintf("%.2f", float64(rd.Makespan)/float64(simtime.Hour)),
		fmt.Sprintf("%.2f", float64(rd.CkptOverhead)/float64(simtime.Hour)),
		fmt.Sprintf("%.2f", float64(rd.LostWork)/float64(simtime.Hour)))

	a := cfg
	// Base-less youngdaly: no clamp, so every segment is the raw Young
	// optimum for the estimator's live MTBF.
	a.Policy = policy.Spec{Strategy: policy.StrategyYoungDaly, CkptCost: cfg.CkptCost}
	a.PriorMTBF = 100 * simtime.Hour
	r := cluster.AverageResult(a, cluster.Exponential{Mean: mtbf}, 7, 40)
	tb.Row("youngdaly", "autonomic(Young+MLE)",
		fmt.Sprintf("%.2f", float64(r.Makespan)/float64(simtime.Hour)),
		fmt.Sprintf("%.2f", float64(r.CkptOverhead)/float64(simtime.Hour)),
		fmt.Sprintf("%.2f", float64(r.LostWork)/float64(simtime.Hour)))
	tb.Note("paper §1: autonomic systems adjust \"the checkpoint interval to the failure rate of the system\"")
	return tb
}

// E7Hardware reproduces §4.2: cache-line-granularity hardware logging vs
// page-granularity software tracking, and the ReVive/SafetyNet resource
// trade (unbounded memory log vs bounded CLB with overflow stalls).
func E7Hardware(mib int) *trace.Table {
	tb := trace.NewTable(
		"E7 — hardware (64B line) vs OS (4KiB page) checkpoint granularity per epoch",
		"workload", "line-bytes(MB)", "page-bytes(MB)", "page/line", "revive-traffic(ms)", "CLB-overflows(4Ki lines)")
	apps := []kernel.Program{
		workload.PointerChase{MiB: mib, WriteEvery: 8, Seed: 6},
		workload.Sparse{MiB: mib, WriteFrac: 0.05, Seed: 6},
		workload.Dense{MiB: mib},
	}
	for _, app := range apps {
		k := newMachine("e7", app)
		p, _ := k.Spawn(app.Name())
		workload.SetIterations(p, 1<<30)
		rv := hardware.NewReVive()
		if err := rv.Attach(p, k.CM, costmodel.Discard{}); err != nil {
			continue
		}
		k.RunFor(2 * simtime.Millisecond)
		rv.Checkpoint(k.Now())
		k.RunFor(5 * simtime.Millisecond)
		lineBytes := rv.PendingBytes()
		pageBytes := hardware.PageBytesFor(rv.LoggedLines())

		// SafetyNet on an identical fresh run.
		k2 := newMachine("e7b", app)
		p2, _ := k2.Spawn(app.Name())
		workload.SetIterations(p2, 1<<30)
		sn := hardware.NewSafetyNet(4096)
		_ = sn.Attach(p2, k2.CM, costmodel.Discard{}, k2.Now)
		k2.RunFor(7 * simtime.Millisecond)

		ratio := "—"
		if lineBytes > 0 {
			ratio = fmt.Sprintf("%.1f", float64(pageBytes)/float64(lineBytes))
		}
		tb.Row(app.Name(), mb(lineBytes), mb(pageBytes), ratio,
			rv.Stats().LogTraffic.Millis(), int64(sn.Stats().Overflows))
	}
	tb.Note("paper §4.2: hardware traces \"at the granularity of cache lines\"; SafetyNet needs more")
	tb.Note("resources (bounded CLBs) than ReVive (directory log in main memory)")
	return tb
}

// E8MPI reproduces the LAM/MPI coordinated-checkpointing behaviour:
// drain time and aggregate image size as the job scales.
func E8MPI(rankCounts []int, nodes int) *trace.Table {
	tb := trace.NewTable(
		fmt.Sprintf("E8 — coordinated checkpoint of an MPI halo-ring job (%d nodes)", nodes),
		"ranks", "drain(ms)", "images(MB)", "msgs-sent", "ckpt-ok")
	for _, nr := range rankCounts {
		c := cluster.New(cluster.Config{Nodes: nodes, Seed: 5, KernelCfg: kernel.DefaultConfig("")},
			costmodel.Default2005(), kernel.NewRegistry())
		j := mpi.NewJob(c, nr, func() mechanism.Mechanism { return syslevel.NewLAMMPI() })
		if err := j.Launch(mpi.HaloRing{MiB: 2, Iterations: 1 << 30, PagesPerIter: 64, HaloBytes: 8192}); err != nil {
			continue
		}
		c.RunFor(5 * simtime.Millisecond)
		var total int
		ok := false
		if err := j.RequestCheckpoint(nil, func(imgs []*checkpoint.Image) {
			ok = true
			for _, img := range imgs {
				total += img.PayloadBytes()
			}
		}); err != nil {
			continue
		}
		if err := j.WaitCheckpoint(simtime.Minute); err != nil {
			continue
		}
		tb.Row(nr, j.LastDrainTime.Millis(), mb(total), j.MessagesSent, ok)
	}
	tb.Note("paper §4.1: \"the global control on a large scale parallel computing could be hard\" —")
	tb.Note("drain time is the price of a consistent global state")
	return tb
}

// E9Matrix reproduces §3's kernel-persistent-state argument as a restart
// success matrix: workloads using sockets / PIDs / shared memory,
// checkpointed by mechanisms with and without virtualization.
func E9Matrix() *trace.Table {
	tb := trace.NewTable(
		"E9 — restart outcome on a different machine, by resource used and mechanism",
		"resource", "condor(user)", "CRAK(kernel)", "UCLiK(+pid)", "ZAP(pod)")
	type resCase struct {
		label string
		w     workload.ResourceUser
	}
	cases := []resCase{
		{"none", workload.ResourceUser{MiB: 1, Iterations: 200}},
		{"socket", workload.ResourceUser{MiB: 1, Iterations: 200, UseSocket: true}},
		{"pid", workload.ResourceUser{MiB: 1, Iterations: 200, CheckPID: true}},
		{"shm", workload.ResourceUser{MiB: 1, Iterations: 200, UseShm: true}},
		{"all", workload.ResourceUser{MiB: 1, Iterations: 200, UseSocket: true, UseShm: true, CheckPID: true}},
	}
	mks := []func() mechanism.Mechanism{
		func() mechanism.Mechanism { return userlevel.NewCondorStyle() },
		func() mechanism.Mechanism { return syslevel.NewCRAK() },
		func() mechanism.Mechanism { return syslevel.NewUCLiK() },
		func() mechanism.Mechanism { return syslevel.NewZAP() },
	}
	for _, rc := range cases {
		row := []any{rc.label}
		for _, mk := range mks {
			row = append(row, restartOutcome(mk, rc.w))
		}
		tb.Row(row...)
	}
	tb.Note("paper §3: user-level schemes cannot capture sockets/shm/PIDs; \"a system-level approach")
	tb.Note("can virtualizate these resources\" (ZAP pods)")
	return tb
}

// restartOutcome runs w, checkpoints it with a fresh instance from mk,
// restarts it on a different machine, and reports how the run ended.
func restartOutcome(mk func() mechanism.Mechanism, w workload.ResourceUser) string {
	m := mk()
	w.Iterations = 5000 // long enough that the checkpoint lands mid-run
	prepared := m.Prepare(w)
	k := newMachine("e9src", prepared)
	if err := m.Install(k); err != nil {
		return "install-err"
	}
	k.Procs.Allocate(0, "boot") // the app is not pid 1, so a fresh machine's pid 1 differs
	p, err := k.Spawn(prepared.Name())
	if err != nil {
		return "spawn-err"
	}
	if err := m.Setup(k, p); err != nil {
		return "setup-err"
	}
	for p.Regs().PC < 50 && p.State != proc.StateZombie {
		k.RunFor(20 * simtime.Microsecond)
	}
	if p.State == proc.StateZombie {
		return "finished-early"
	}
	tk, err := mechanism.Checkpoint(m, k, p, nil, nil)
	if err != nil {
		return "ckpt-err"
	}
	m2 := mk()
	dst := newMachine("e9dst", m2.Prepare(w))
	if err := m2.Install(dst); err != nil {
		return "install-err"
	}
	p2, err := m2.Restart(dst, []*checkpoint.Image{tk.Img}, true)
	if err != nil {
		return "restart-err"
	}
	if !dst.RunUntilExit(p2, dst.Now().Add(simtime.Minute)) {
		return "stuck"
	}
	switch p2.ExitCode {
	case workload.ExitOK:
		return "OK"
	case workload.ExitSocketLost:
		return "socket-lost"
	case workload.ExitPIDChanged:
		return "pid-changed"
	case workload.ExitShmLost:
		return "shm-lost"
	default:
		return fmt.Sprintf("exit-%d", p2.ExitCode)
	}
}

// E10Extras measures the remaining §4.1 behaviours: Software Suspend's
// whole-machine hibernate/resume, Checkpoint's fork consistency overlap,
// and gang preemption via C/R.
func E10Extras() *trace.Table {
	tb := trace.NewTable("E10 — hibernation, fork consistency, gang preemption", "scenario", "metric", "value")

	// Software Suspend.
	{
		m := syslevel.NewSoftwareSuspend()
		progs := []kernel.Program{workload.Dense{MiB: 4}, workload.Spin{Tag: "bg"}}
		k := newMachine("e10a", progs...)
		_ = m.Install(k)
		pa, _ := k.Spawn(progs[0].Name())
		pb, _ := k.Spawn(progs[1].Name())
		workload.SetIterations(pa, 1<<30)
		workload.SetIterations(pb, 1<<30)
		k.RunFor(5 * simtime.Millisecond)
		t0 := k.Now()
		imgs, err := m.Suspend(k, localDisk(), nil)
		if err == nil {
			suspend := k.Now().Sub(t0)
			t1 := k.Now()
			_, err = m.Resume(k, imgs)
			if err == nil {
				tb.Row("swsusp", "suspend(ms)", suspend.Millis())
				tb.Row("swsusp", "resume(ms)", k.Now().Sub(t1).Millis())
				tb.Row("swsusp", "processes", len(imgs))
			}
		}
	}

	// Fork consistency: parent progress during the save.
	{
		m := syslevel.NewCheckpointFork(0, nil)
		prog := workload.Dense{MiB: 8}
		prepared := m.Prepare(prog)
		k := newMachine("e10b", prepared)
		_ = m.Install(k)
		p, _ := k.Spawn(prepared.Name())
		workload.SetIterations(p, 1<<30)
		for !p.Registered["Checkpoint"] {
			k.RunFor(simtime.Millisecond)
		}
		before := p.Regs().PC*1_000_000 + p.Regs().G[4]
		tk, err := m.Request(k, p, localDisk(), nil)
		if err == nil && mechanism.WaitTicket(k, tk, simtime.Minute) == nil {
			imgAt := tk.Img.Threads[0].Regs.PC*1_000_000 + tk.Img.Threads[0].Regs.G[4]
			liveAt := p.Regs().PC*1_000_000 + p.Regs().G[4]
			tb.Row("fork-ckpt", "capture(ms)", tk.Total().Millis())
			tb.Row("fork-ckpt", "parent-progress-during-save(pages)", int64(liveAt-imgAt))
			_ = before
		}
	}

	// Gang preemption.
	{
		reg := kernel.NewRegistry()
		prog := workload.Sparse{MiB: 2, WriteFrac: 0.2, Seed: 8}
		reg.MustRegister(prog)
		c := cluster.New(cluster.Config{Nodes: 3, Seed: 2, KernelCfg: kernel.DefaultConfig("")},
			costmodel.Default2005(), reg)
		var members []cluster.GangMember
		for i := 0; i < 3; i++ {
			p, err := c.Node(i).K.Spawn(prog.Name())
			if err != nil {
				break
			}
			workload.SetIterations(p, 1<<30)
			members = append(members, cluster.GangMember{Node: i, PID: p.PID})
		}
		c.RunFor(5 * simtime.Millisecond)
		g := cluster.NewGang(c, func() mechanism.Mechanism { return syslevel.NewCRAK() }, members)
		// Captures run on the node kernels; measure the slowest node's
		// clock advance (the nodes work in parallel).
		nodeTime := func() simtime.Time {
			var worst simtime.Time
			for _, n := range c.Nodes() {
				if n.K.Now() > worst {
					worst = n.K.Now()
				}
			}
			return worst
		}
		t0 := nodeTime()
		if g.Preempt() == nil {
			tb.Row("gang", "preempt-3-procs(ms)", nodeTime().Sub(t0).Millis())
			t1 := nodeTime()
			if _, err := g.Resume(); err == nil {
				tb.Row("gang", "resume-3-procs(ms)", nodeTime().Sub(t1).Millis())
			}
		}
	}
	tb.Note("paper §1: \"safe pre-emption\", \"temporary suspension ... for planned system outage\"")
	return tb
}
