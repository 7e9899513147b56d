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

// E5 reproduces §4.1's fault-tolerance argument about storage
// placement: a 48 h job with half its node failures permanent, by MTBF
// and storage policy. Local-only checkpoints (most of Table 1) protect
// far less than remote ones. A job that never completes records no
// makespan; at each MTBF, "remote vs local" and "local vs none" compare
// makespans where both runs completed, and lost work always.
func E5(quick bool) []Record {
	mtbfs := []float64{2, 4, 8, 24, 72}
	if quick {
		mtbfs = []float64{8, 24}
	}
	rec := &recorder{exp: "E5"}
	for _, mh := range mtbfs {
		mtbf := simtime.Duration(mh * float64(simtime.Hour))
		var runs []cluster.JobResult // none, local, remote
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
				cfg.Policy = policy.Fixed(policy.Young(cfg.CkptCost, mtbf))
			}
			r := cluster.AverageResult(cfg, cluster.Exponential{Mean: mtbf}, 99, 40)
			runs = append(runs, r)
			cs := fmt.Sprintf("mtbf=%gh %s", mh, pol)
			rec.flag(cs, "completed", r.Completed)
			if r.Completed {
				rec.add(cs, "makespan_h", "h", 1, hours(r.Makespan))
			}
			rec.add(cs, "lost_work_h", "h", 1, hours(r.LostWork))
			rec.count(cs, "restarts", int64(r.Restarts))
			rec.add(cs, "utilization", "frac", 1, r.Utilization)
		}
		for _, pair := range []struct {
			name       string
			better, vs cluster.JobResult
		}{
			{"remote vs local", runs[2], runs[1]},
			{"local vs none", runs[1], runs[0]},
		} {
			cs := fmt.Sprintf("mtbf=%gh %s", mh, pair.name)
			if pair.better.Completed && pair.vs.Completed {
				rec.ratio(cs, "makespan_ratio", "x", float64(pair.better.Makespan), float64(pair.vs.Makespan))
			}
			rec.ratio(cs, "lost_work_ratio", "x", float64(pair.better.LostWork), float64(pair.vs.LostWork))
		}
	}
	return rec.done()
}

// E6 reproduces the §1 autonomic-interval claim on a 72 h job at an
// 8 h MTBF with a 3 min checkpoint: a sweep of fixed intervals from 1/8
// to 8 times Young's optimum brackets it, Daly's interval sits beside
// it, and the autonomic youngdaly policy (Young's formula on an online
// MTBF estimate) approaches it from a wrong prior.
func E6(quick bool) []Record {
	_ = quick // the analytic model is cheap at full size
	const mtbf = 8 * simtime.Hour
	cfg := cluster.JobConfig{
		Work:        72 * simtime.Hour,
		CkptCost:    3 * simtime.Minute,
		RestartCost: 2 * simtime.Minute,
		RepairTime:  5 * simtime.Minute,
		Storage:     cluster.StoreRemote,
	}
	rec := &recorder{exp: "E6"}
	run := func(cs string, spec policy.Spec, prior simtime.Duration) float64 {
		c := cfg
		c.Policy, c.PriorMTBF = spec, prior
		r := cluster.AverageResult(c, cluster.Exponential{Mean: mtbf}, 7, 40)
		if iv := spec.Interval; iv > 0 {
			rec.add(cs, "interval_min", "min", 1, float64(iv)/float64(simtime.Minute))
		}
		rec.add(cs, "makespan_h", "h", 1, hours(r.Makespan))
		rec.add(cs, "ckpt_overhead_h", "h", 1, hours(r.CkptOverhead))
		rec.add(cs, "lost_work_h", "h", 1, hours(r.LostWork))
		return float64(r.Makespan)
	}
	young := policy.Young(cfg.CkptCost, mtbf)
	makespan := map[string]float64{}
	for _, mult := range []float64{0.125, 0.25, 0.5, 1, 2, 4, 8} {
		cs := fmt.Sprintf("fixed x%g", mult)
		if mult == 1 {
			cs = "young"
		}
		makespan[cs] = run(cs, policy.Fixed(simtime.Duration(float64(young)*mult)), 0)
	}
	makespan["daly"] = run("daly", policy.Fixed(policy.Daly(cfg.CkptCost, mtbf)), 0)
	// Base-less youngdaly: no clamp, so every segment is the raw Young
	// optimum for the estimator's live MTBF.
	makespan["youngdaly"] = run("youngdaly",
		policy.Spec{Strategy: policy.StrategyYoungDaly, CkptCost: cfg.CkptCost}, 100*simtime.Hour)
	for _, pair := range [][2]string{
		{"young", "fixed x0.125"}, {"young", "fixed x8"}, {"young", "daly"}, {"youngdaly", "young"},
	} {
		rec.ratio(pair[0]+" vs "+pair[1], "makespan_ratio", "x", makespan[pair[0]], makespan[pair[1]])
	}
	return rec.done()
}

// E7 reproduces §4.2: cache-line-granularity hardware logging vs
// page-granularity software tracking per epoch, and the ReVive/SafetyNet
// resource trade (unbounded memory log vs bounded CLB with overflow
// stalls, here 4Ki lines).
func E7(quick bool) []Record {
	mib := 8
	if quick {
		mib = 2
	}
	rec := &recorder{exp: "E7"}
	for _, app := range []kernel.Program{
		workload.PointerChase{MiB: mib, WriteEvery: 8, Seed: 6},
		workload.Sparse{MiB: mib, WriteFrac: 0.05, Seed: 6},
		workload.Dense{MiB: mib},
	} {
		k := newMachine("e7", app)
		p, err := k.Spawn(app.Name())
		if !rec.check(err) {
			continue
		}
		workload.SetIterations(p, 1<<30)
		rv := hardware.NewReVive()
		if !rec.check(rv.Attach(p, k.CM, costmodel.Discard{})) {
			continue
		}
		k.RunFor(2 * simtime.Millisecond)
		rv.Checkpoint(k.Now())
		k.RunFor(5 * simtime.Millisecond)
		lineBytes := rv.PendingBytes()
		pageBytes := hardware.PageBytesFor(rv.LoggedLines())

		// SafetyNet on an identical fresh run.
		k2 := newMachine("e7b", app)
		p2, err := k2.Spawn(app.Name())
		if !rec.check(err) {
			continue
		}
		workload.SetIterations(p2, 1<<30)
		sn := hardware.NewSafetyNet(4096)
		if !rec.check(sn.Attach(p2, k2.CM, costmodel.Discard{}, k2.Now)) {
			continue
		}
		k2.RunFor(7 * simtime.Millisecond)

		cs := app.Name()
		rec.add(cs, "line_mb", "MB", 1, mb(lineBytes))
		rec.add(cs, "page_mb", "MB", 1, mb(pageBytes))
		rec.ratio(cs, "page_vs_line", "x", float64(pageBytes), float64(lineBytes))
		rec.ms(cs, "revive_traffic_ms", rv.Stats().LogTraffic.Millis())
		rec.count(cs, "clb_overflows", int64(sn.Stats().Overflows))
	}
	return rec.done()
}

// E8 reproduces the LAM/MPI coordinated-checkpointing behaviour on a
// 4-node cluster: drain time and aggregate image size as the halo-ring
// job scales. "ranks=N vs M" is the drain time of the most ranks over
// that of the fewest.
func E8(quick bool) []Record {
	ranks := []int{2, 4, 8, 16}
	if quick {
		ranks = []int{2, 8}
	}
	const nodes = 4
	rec := &recorder{exp: "E8"}
	var drains []float64
	for _, nr := range ranks {
		c := cluster.New(cluster.Config{Nodes: nodes, Seed: 5, KernelCfg: kernel.DefaultConfig("")},
			costmodel.Default2005(), kernel.NewRegistry())
		j := mpi.NewJob(c, nr, func() mechanism.Mechanism { return syslevel.NewLAMMPI() })
		if !rec.check(j.Launch(mpi.HaloRing{MiB: 2, Iterations: 1 << 30, PagesPerIter: 64, HaloBytes: 8192})) {
			continue
		}
		c.RunFor(5 * simtime.Millisecond)
		var total int
		ok := false
		if !rec.check(j.RequestCheckpoint(nil, func(imgs []*checkpoint.Image) {
			ok = true
			for _, img := range imgs {
				total += img.PayloadBytes()
			}
		})) {
			continue
		}
		if !rec.check(j.WaitCheckpoint(simtime.Minute)) {
			continue
		}
		cs := fmt.Sprintf("ranks=%d", nr)
		drains = append(drains, j.LastDrainTime.Millis())
		rec.ms(cs, "drain_ms", j.LastDrainTime.Millis())
		rec.add(cs, "images_mb", "MB", 1, mb(total))
		rec.count(cs, "msgs_sent", int64(j.MessagesSent))
		rec.flag(cs, "ckpt_ok", ok)
	}
	if len(drains) == len(ranks) {
		rec.ratio(fmt.Sprintf("ranks=%d vs %d", ranks[len(ranks)-1], ranks[0]), "drain_ratio", "x",
			drains[len(drains)-1], drains[0])
	}
	return rec.done()
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

// E10 measures the remaining §4.1 behaviours: Software Suspend's
// whole-machine hibernate/resume, Checkpoint's fork consistency overlap
// (how far the parent runs while its forked child saves), and gang
// preemption via C/R.
func E10(quick bool) []Record {
	_ = quick // one fixed-size run per behaviour
	rec := &recorder{exp: "E10"}

	// Software Suspend.
	{
		const cs = "swsusp"
		m := syslevel.NewSoftwareSuspend()
		progs := []kernel.Program{workload.Dense{MiB: 4}, workload.Spin{Tag: "bg"}}
		k := newMachine("e10a", progs...)
		if rec.check(m.Install(k)) {
			for _, prog := range progs {
				p, err := k.Spawn(prog.Name())
				if rec.check(err) {
					workload.SetIterations(p, 1<<30)
				}
			}
			k.RunFor(5 * simtime.Millisecond)
			t0 := k.Now()
			imgs, err := m.Suspend(k, localDisk(), nil)
			if rec.check(err) {
				rec.ms(cs, "suspend_ms", k.Now().Sub(t0).Millis())
				t1 := k.Now()
				if _, err := m.Resume(k, imgs); rec.check(err) {
					rec.ms(cs, "resume_ms", k.Now().Sub(t1).Millis())
					rec.count(cs, "processes", int64(len(imgs)))
				}
			}
		}
	}

	// Fork consistency: parent progress during the save, in pages
	// (iterations count as a million pages each).
	{
		const cs = "fork-ckpt"
		m := syslevel.NewCheckpointFork(0, nil)
		prepared := m.Prepare(workload.Dense{MiB: 8})
		k := newMachine("e10b", prepared)
		if rec.check(m.Install(k)) {
			if p, err := k.Spawn(prepared.Name()); rec.check(err) {
				workload.SetIterations(p, 1<<30)
				for !p.Registered["Checkpoint"] {
					k.RunFor(simtime.Millisecond)
				}
				tk, err := m.Request(k, p, localDisk(), nil)
				if rec.check(err) && rec.check(mechanism.WaitTicket(k, tk, simtime.Minute)) {
					imgAt := tk.Img.Threads[0].Regs.PC*1_000_000 + tk.Img.Threads[0].Regs.G[4]
					liveAt := p.Regs().PC*1_000_000 + p.Regs().G[4]
					rec.ms(cs, "capture_ms", tk.Total().Millis())
					rec.add(cs, "parent_progress", "pages", 1, float64(liveAt-imgAt))
				}
			}
		}
	}

	// Gang preemption.
	{
		const cs = "gang"
		reg := kernel.NewRegistry()
		prog := workload.Sparse{MiB: 2, WriteFrac: 0.2, Seed: 8}
		reg.MustRegister(prog)
		c := cluster.New(cluster.Config{Nodes: 3, Seed: 2, KernelCfg: kernel.DefaultConfig("")},
			costmodel.Default2005(), reg)
		var members []cluster.GangMember
		for i := 0; i < 3; i++ {
			p, err := c.Node(i).K.Spawn(prog.Name())
			if !rec.check(err) {
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
		if rec.check(g.Preempt()) {
			rec.ms(cs, "preempt_ms", nodeTime().Sub(t0).Millis())
			t1 := nodeTime()
			if _, err := g.Resume(); rec.check(err) {
				rec.ms(cs, "resume_ms", nodeTime().Sub(t1).Millis())
			}
		}
	}
	return rec.done()
}
