// Package experiments implements E1–E20 from DESIGN.md. Each reproduces
// one figure, table, or measured claim of the paper. Every experiment
// but E9 returns its measurements as Records, which Check judges
// against the one Gates table; E9, Table 1's categorical restart
// matrix, returns a rendered table. cmd/crbench prints them; the
// repository-root benchmark wraps E1–E13 for `go test -bench`.
package experiments

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/costmodel"
	"repro/internal/mechanism"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/syslevel"
	"repro/internal/trace"
	"repro/internal/userlevel"
	"repro/internal/workload"
)

// Experiment is one experiment as crbench runs it: its number, the
// title printed over its output, and either Run, which returns its
// records, or Table, which renders E9's categorical matrix.
type Experiment struct {
	N     int
	Title string
	Run   func(quick bool) []Record
	Table func() *trace.Table
}

// All lists E1–E20 in order.
var All = []Experiment{
	{1, "E1 — user-level vs system-level checkpoint cost (dense workload)", E1, nil},
	{2, "E2 — full vs incremental checkpoint size by application write pattern", E2, nil},
	{3, "E3 — probabilistic checkpointing: block-size sweep (pointer-chase workload)", E3, nil},
	{4, "E4 — initiation delay and total latency of system-level agents vs background load", E4, nil},
	{5, "E5 — job makespan vs MTBF by checkpoint storage policy (48h job, 50% permanent failures)", E5, nil},
	{6, "E6 — checkpoint interval sweep (72h job, MTBF 8h, δ=3min)", E6, nil},
	{7, "E7 — hardware (64B line) vs OS (4KiB page) checkpoint granularity per epoch", E7, nil},
	{8, "E8 — coordinated checkpoint of an MPI halo-ring job (4 nodes)", E8, nil},
	{9, "", nil, E9Matrix},
	{10, "E10 — hibernation, fork consistency, gang preemption", E10, nil},
	{11, "E11 — completion and image integrity under injected storage faults, by commit protocol", E11, nil},
	{12, "E12 — failure detection vs network faults: latency, false positives, and fenced split brains", E12, nil},
	{13, "E13 — seeded chaos sweep: invariant violations, shipped vs fencing-disabled", E13, nil},
	{14, "E14 — incremental shipping vs full images: bytes shipped and restore read across dirty rates", E14, nil},
	{15, "E15 — sharded capture throughput vs worker count, pipelined publish latency", E15, nil},
	{16, "E16 — restore latency vs chain depth and replay width, folded chain, failover restores", E16, nil},
	{17, "E17 — replication write overhead, degraded restore, replicated failover restores", E17, nil},
	{18, "E18 — fleet scale: detection and failover latency vs fleet size", E18, nil},
	{19, "E19 — lazy restore: TTFI vs eager full restore of a 16-delta chain", E19, nil},
	{20, "E20 — policy-driven cadence and content vs fixed/full twins", E20, nil},
}

// newMachine builds a kernel with the given programs.
func newMachine(name string, progs ...kernel.Program) *kernel.Kernel {
	reg := kernel.NewRegistry()
	for _, p := range progs {
		reg.MustRegister(p)
	}
	return kernel.New(kernel.DefaultConfig(name), costmodel.Default2005(), reg)
}

func localDisk() *storage.Store {
	return storage.NewLocal("disk", costmodel.Default2005(), nil)
}

// runTo advances k until p's PC reaches iter (or it exits).
func runTo(k *kernel.Kernel, p *proc.Process, iter uint64) {
	for p.Regs().PC < iter && p.State != proc.StateZombie {
		k.RunFor(simtime.Millisecond)
	}
}

// mb converts bytes to MB.
func mb(n int) float64 { return float64(n) / 1e6 }

// hours converts a simulated duration to hours.
func hours(d simtime.Duration) float64 { return float64(d) / float64(simtime.Hour) }

// E1 measures §3's efficiency argument: checkpoint latency and syscall
// footprint of user-level vs system-level extraction, across process
// sizes. The user-level scheme pays per-item system calls, signal
// delivery, and mprotect traffic; the kernel-level one reads process
// structures directly. "user vs system" is the user-level syscalls
// over every size minus the system-level ones.
func E1(quick bool) []Record {
	sizes := []int{1, 4, 16, 64}
	if quick {
		sizes = []int{1, 4}
	}
	rec := &recorder{exp: "E1"}
	syscalls := map[string]int64{} // by context
	for _, mib := range sizes {
		for _, c := range []struct {
			label   string
			context string
			mk      func() mechanism.Mechanism
		}{
			{"condor(signal)", "user", func() mechanism.Mechanism { return userlevel.NewCondorStyle() }},
			{"libckpt(library)", "user", func() mechanism.Mechanism { return userlevel.NewLibCkpt(0, nil, false) }},
			{"CRAK(kthread)", "system", func() mechanism.Mechanism { return syslevel.NewCRAK() }},
			{"EPCKPT(ksignal)", "system", func() mechanism.Mechanism { return syslevel.NewEPCKPT() }},
		} {
			m := c.mk()
			prepared := m.Prepare(workload.Dense{MiB: mib})
			k := newMachine("e1", prepared)
			if !rec.check(m.Install(k)) {
				continue
			}
			p, err := k.Spawn(prepared.Name())
			if !rec.check(err) || !rec.check(m.Setup(k, p)) {
				continue
			}
			workload.SetIterations(p, 1<<30)
			runTo(k, p, 1)                // materialize the working set
			k.RunFor(simtime.Millisecond) // let library checkpoint points register
			sys0 := k.SyscallCount
			tk, err := mechanism.Checkpoint(m, k, p, localDisk(), nil)
			if !rec.check(err) {
				continue
			}
			cs := fmt.Sprintf("size=%dMiB %s %s", mib, c.context, c.label)
			n := int64(k.SyscallCount - sys0)
			syscalls[c.context] += n
			rec.ms(cs, "latency_ms", tk.Total().Millis())
			rec.count(cs, "syscalls", n)
			rec.add(cs, "payload_mb", "MB", 1, mb(tk.Stats.PayloadBytes))
		}
	}
	rec.count("user vs system", "extra_syscalls", syscalls["user"]-syscalls["system"])
	return rec.done()
}

// E2 reproduces the §1/§3 incremental-checkpointing claim (per [31],
// savings depend on the application): full vs incremental checkpoint
// sizes across write densities, plus the tracking overhead between
// checkpoints. "chase vs dense" is the pointer chase's delta/full over
// the dense workload's.
func E2(quick bool) []Record {
	mib := 16
	if quick {
		mib = 4
	}
	rec := &recorder{exp: "E2"}
	var dense, chase float64 // delta/full
	for _, app := range []kernel.Program{
		workload.Dense{MiB: mib},
		workload.Stencil{MiB: mib},
		workload.Sparse{MiB: mib, WriteFrac: 0.10, Seed: 2},
		workload.Sparse{MiB: mib, WriteFrac: 0.01, Seed: 2},
		workload.PointerChase{MiB: mib, WriteEvery: 64, Seed: 2},
	} {
		k := newMachine("e2", app)
		p, err := k.Spawn(app.Name())
		if !rec.check(err) {
			continue
		}
		workload.SetIterations(p, 1<<30)
		runTo(k, p, 2)

		trk := checkpoint.NewKernelWPTracker(k, p)
		if !rec.check(trk.Arm()) {
			continue
		}
		acc := &checkpoint.KernelAccessor{K: k, P: p}
		// First capture: the full baseline.
		k.Stop(p)
		_, fullSt, err := checkpoint.Capture(checkpoint.Request{
			Acc: acc, Trk: trk, Mechanism: "e2", Hostname: "e2", Seq: 1, Now: k.Now(),
		})
		if !rec.check(err) {
			continue
		}
		k.Wake(p)
		// Three incremental epochs.
		var deltaSum int
		const epochs = 3
		for e := 0; e < epochs; e++ {
			runTo(k, p, p.Regs().PC+1)
			k.Stop(p)
			_, st, err := checkpoint.Capture(checkpoint.Request{
				Acc: acc, Trk: trk, Mechanism: "e2", Hostname: "e2",
				Seq: uint64(e + 2), Parent: "x", Now: k.Now(),
			})
			if !rec.check(err) {
				break
			}
			deltaSum += st.PayloadBytes
			k.Wake(p)
		}
		meanDelta := deltaSum / epochs
		ts := trk.Stats()
		cs := app.Name()
		ratio := float64(meanDelta) / float64(fullSt.PayloadBytes)
		switch app.(type) {
		case workload.Dense:
			dense = ratio
		case workload.PointerChase:
			chase = ratio
		}
		rec.add(cs, "full_mb", "MB", 1, mb(fullSt.PayloadBytes))
		rec.add(cs, "mean_delta_mb", "MB", epochs, mb(meanDelta))
		rec.ratio(cs, "delta_vs_full", "x", float64(meanDelta), float64(fullSt.PayloadBytes))
		rec.count(cs, "track_faults", int64(ts.Faults))
		rec.ms(cs, "track_overhead_ms", ts.RuntimeOverhead.Millis())
		trk.Close()
	}
	rec.ratio("chase vs dense", "delta_vs_full_ratio", "x", chase, dense)
	return rec.done()
}

// E3 reproduces the probabilistic/adaptive-block-size analysis of [23]
// and [1]: a block-size sweep trades hash time against shipped bytes,
// with the analytic miss probability of 16-bit checksums. The hybrid
// case narrows hashing to dirty pages (exact, no miss risk); the
// adaptive case records the block size the adaptive tracker settles on.
// "finest vs coarsest" is the smallest block's delta over the largest's.
func E3(quick bool) []Record {
	mib := 8
	if quick {
		mib = 2
	}
	blockSizes := []int{64, 128, 256, 512, 1024, 2048, 4096}
	rec := &recorder{exp: "E3"}
	// start spawns the pointer chase and runs it to a stopped steady state.
	start := func(name string) (*kernel.Kernel, *proc.Process, bool) {
		prog := workload.PointerChase{MiB: mib, WriteEvery: 16, Seed: 5}
		k := newMachine(name, prog)
		p, err := k.Spawn(prog.Name())
		if !rec.check(err) {
			return nil, nil, false
		}
		workload.SetIterations(p, 1<<30)
		runTo(k, p, 4096)
		k.Stop(p)
		return k, p, true
	}
	// epoch runs the stopped process 4096 more iterations and stops it.
	epoch := func(k *kernel.Kernel, p *proc.Process) {
		k.Wake(p)
		runTo(k, p, p.Regs().PC+4096)
		k.Stop(p)
	}
	length := func(rs []checkpoint.Range) int {
		n := 0
		for _, r := range rs {
			n += r.Length
		}
		return n
	}
	var deltas []int
	for _, bs := range blockSizes {
		k, p, ok := start("e3")
		if !ok {
			continue
		}
		led := costmodel.NewLedger()
		trk, err := checkpoint.NewHashTracker(&checkpoint.KernelAccessor{K: k, P: p}, led, k.CM, bs, 16)
		if !rec.check(err) || !rec.check(trk.Arm()) {
			continue
		}
		epoch(k, p)
		led.Reset()
		rs, err := trk.Collect()
		if !rec.check(err) {
			continue
		}
		bytes := length(rs)
		deltas = append(deltas, bytes)
		cs := fmt.Sprintf("block=%dB", bs)
		rec.add(cs, "delta_mb", "MB", 1, mb(bytes))
		rec.ms(cs, "hash_ms", led.Total.Millis())
		rec.count(cs, "blocks_changed", int64(bytes/bs))
		rec.add(cs, "miss_prob", "p", 1, trk.MissProbability(bytes/bs))
		trk.Close()
	}
	if len(deltas) == len(blockSizes) {
		rec.ratio("finest vs coarsest", "delta_ratio", "x", float64(deltas[0]), float64(deltas[len(deltas)-1]))
	}

	// Hybrid: page tracking narrows hashing to dirty pages only.
	if k, p, ok := start("e3h"); ok {
		led := costmodel.NewLedger()
		trk, err := checkpoint.NewHybridTracker(k, p, led, 256)
		if rec.check(err) && rec.check(trk.Arm()) {
			if _, err := trk.Collect(); rec.check(err) { // baseline
				epoch(k, p)
				led.Reset()
				if rs, err := trk.Collect(); rec.check(err) {
					bytes := length(rs)
					const cs = "hybrid-256"
					rec.add(cs, "delta_mb", "MB", 1, mb(bytes))
					rec.ms(cs, "hash_ms", led.Total.Millis())
					rec.count(cs, "blocks_changed", int64(bytes/256))
					rec.add(cs, "miss_prob", "p", 1, 0)
				}
			}
			trk.Close()
		}
	}

	// Adaptive: the block size the tracker converges to.
	if k, p, ok := start("e3a"); ok {
		atrk, err := checkpoint.NewAdaptiveTracker(&checkpoint.KernelAccessor{K: k, P: p}, costmodel.Discard{}, k.CM, nil)
		if rec.check(err) && rec.check(atrk.Arm()) {
			for e := 0; e < 4; e++ {
				epoch(k, p)
				_, err := atrk.Collect()
				rec.check(err)
			}
			rec.add("adaptive", "block_bytes", "B", 1, float64(atrk.Granularity()))
			atrk.Close()
		}
	}
	return rec.done()
}

// E4 measures §4.1's comparison of the three system-level agents under
// background load: the kernel-signal path defers to the target's next
// kernel→user transition, the self-checkpointing syscall path waits for
// the application's next checkpoint call, and the kernel-thread path
// depends on its scheduling class. At each load above 0, "OTHER vs
// FIFO" is the SCHED_OTHER thread's total latency over the SCHED_FIFO
// one's, and "FIFO vs idle" and "ksignal vs idle" compare an agent with
// itself at load 0.
func E4(quick bool) []Record {
	loads := []int{0, 2, 4, 8, 16}
	if quick {
		loads = []int{0, 8}
	}
	rec := &recorder{exp: "E4"}
	var idleFIFO, idleSignal float64
	for _, load := range loads {
		var fifo, other, signal float64
		for _, a := range []struct {
			label string
			mk    func() mechanism.Mechanism
		}{
			{"kthread-FIFO(CRAK)", func() mechanism.Mechanism { return syslevel.NewCRAK() }},
			{"kthread-OTHER", func() mechanism.Mechanism { return syslevel.NewCRAKWithPolicy(proc.SchedOther, 20) }},
			{"ksignal(EPCKPT)", func() mechanism.Mechanism { return syslevel.NewEPCKPT() }},
			{"syscall(VMADump)", func() mechanism.Mechanism { return syslevel.NewVMADump(0, nil) }},
		} {
			m := a.mk()
			prepared := m.Prepare(workload.Sparse{MiB: 4, WriteFrac: 0.1, Seed: 3})
			progs := []kernel.Program{prepared}
			for i := 0; i < load; i++ {
				progs = append(progs, workload.Spin{Tag: fmt.Sprintf("bg%d", i)})
			}
			k := newMachine("e4", progs...)
			if !rec.check(m.Install(k)) {
				continue
			}
			p, err := k.Spawn(prepared.Name())
			if !rec.check(err) || !rec.check(m.Setup(k, p)) {
				continue
			}
			workload.SetIterations(p, 1<<30)
			for i := 0; i < load; i++ {
				bg, err := k.Spawn(workload.Spin{Tag: fmt.Sprintf("bg%d", i)}.Name())
				if rec.check(err) {
					workload.SetIterations(bg, 1<<30)
				}
			}
			k.RunFor(5 * simtime.Millisecond)
			tk, err := mechanism.Checkpoint(m, k, p, localDisk(), nil)
			if !rec.check(err) {
				continue
			}
			initMs, totalMs := tk.InitiationDelay().Millis(), tk.Total().Millis()
			switch a.label {
			case "kthread-FIFO(CRAK)":
				fifo = totalMs
			case "kthread-OTHER":
				other = totalMs
			case "ksignal(EPCKPT)":
				signal = initMs
			}
			cs := fmt.Sprintf("load=%d %s", load, a.label)
			rec.ms(cs, "init_ms", initMs)
			rec.ms(cs, "total_ms", totalMs)
		}
		if load == 0 {
			idleFIFO, idleSignal = fifo, signal
			continue
		}
		rec.ratio(fmt.Sprintf("load=%d OTHER vs FIFO", load), "total_ratio", "x", other, fifo)
		rec.ratio(fmt.Sprintf("load=%d FIFO vs idle", load), "total_ratio", "x", fifo, idleFIFO)
		rec.ratio(fmt.Sprintf("load=%d ksignal vs idle", load), "init_ratio", "x", signal, idleSignal)
	}
	return rec.done()
}
