// Package experiments implements E1–E20 from DESIGN.md. E1–E13 each
// reproduce one figure, table, or measured claim of the paper and return
// the result as a rendered table; E14–E20 each return their measurements
// as Records, which Check judges against the Gates table. cmd/crbench
// prints them; the repository-root benchmarks wrap E1–E11 for
// `go test -bench`.
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

// mb renders bytes as MB with two decimals.
func mb(n int) string { return fmt.Sprintf("%.2f", float64(n)/1e6) }

// E1UserVsSystem measures §3's efficiency argument: checkpoint latency and
// syscall footprint of user-level vs system-level extraction, across
// process sizes. The user-level scheme pays per-item system calls, signal
// delivery, and mprotect traffic; the kernel-level one reads process
// structures directly.
func E1UserVsSystem(sizesMiB []int) *trace.Table {
	tb := trace.NewTable(
		"E1 — user-level vs system-level checkpoint cost (dense workload)",
		"size(MiB)", "mechanism", "context", "latency(ms)", "syscalls", "payload(MB)")
	for _, mib := range sizesMiB {
		type cfg struct {
			label   string
			context string
			mk      func() mechanism.Mechanism
		}
		for _, c := range []cfg{
			{"condor(signal)", "user", func() mechanism.Mechanism { return userlevel.NewCondorStyle() }},
			{"libckpt(library)", "user", func() mechanism.Mechanism { return userlevel.NewLibCkpt(0, nil, false) }},
			{"CRAK(kthread)", "system", func() mechanism.Mechanism { return syslevel.NewCRAK() }},
			{"EPCKPT(ksignal)", "system", func() mechanism.Mechanism { return syslevel.NewEPCKPT() }},
		} {
			m := c.mk()
			prog := workload.Dense{MiB: mib}
			prepared := m.Prepare(prog)
			k := newMachine("e1", prepared)
			if err := m.Install(k); err != nil {
				continue
			}
			p, err := k.Spawn(prepared.Name())
			if err != nil {
				continue
			}
			_ = m.Setup(k, p)
			workload.SetIterations(p, 1<<30)
			runTo(k, p, 1)                // materialize the working set
			k.RunFor(simtime.Millisecond) // let library checkpoint points register
			sys0 := k.SyscallCount
			tk, err := mechanism.Checkpoint(m, k, p, localDisk(), nil)
			if err != nil {
				continue
			}
			tb.Row(mib, c.label, c.context,
				tk.Total().Millis(), int64(k.SyscallCount-sys0), mb(tk.Stats.PayloadBytes))
		}
	}
	tb.Note("paper §3: user-level pays syscall/context-switch and signal costs; kernel access is direct")
	return tb
}

// E2Incremental reproduces the §1/§3 incremental-checkpointing claim (per
// [31], savings depend on the application): full vs incremental checkpoint
// sizes across write densities, plus the tracking overhead between
// checkpoints.
func E2Incremental(mib int) *trace.Table {
	tb := trace.NewTable(
		"E2 — full vs incremental checkpoint size by application write pattern",
		"workload", "full(MB)", "mean-delta(MB)", "delta/full", "track-faults", "track-overhead(ms)")
	apps := []kernel.Program{
		workload.Dense{MiB: mib},
		workload.Stencil{MiB: mib},
		workload.Sparse{MiB: mib, WriteFrac: 0.10, Seed: 2},
		workload.Sparse{MiB: mib, WriteFrac: 0.01, Seed: 2},
		workload.PointerChase{MiB: mib, WriteEvery: 64, Seed: 2},
	}
	for _, app := range apps {
		k := newMachine("e2", app)
		p, err := k.Spawn(app.Name())
		if err != nil {
			continue
		}
		workload.SetIterations(p, 1<<30)
		runTo(k, p, 2)

		trk := checkpoint.NewKernelWPTracker(k, p)
		if err := trk.Arm(); err != nil {
			continue
		}
		acc := &checkpoint.KernelAccessor{K: k, P: p}
		// First capture: the full baseline.
		k.Stop(p)
		_, fullSt, err := checkpoint.Capture(checkpoint.Request{
			Acc: acc, Trk: trk, Mechanism: "e2", Hostname: "e2", Seq: 1, Now: k.Now(),
		})
		if err != nil {
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
			if err != nil {
				break
			}
			deltaSum += st.PayloadBytes
			k.Wake(p)
		}
		meanDelta := deltaSum / epochs
		ts := trk.Stats()
		tb.Row(app.Name(), mb(fullSt.PayloadBytes), mb(meanDelta),
			fmt.Sprintf("%.3f", float64(meanDelta)/float64(fullSt.PayloadBytes)),
			int64(ts.Faults), ts.RuntimeOverhead.Millis())
		trk.Close()
	}
	tb.Note("paper [31]: \"the reduction in the size of the checkpoint data depends strongly on the application\"")
	return tb
}

// E3BlockSize reproduces the probabilistic/adaptive-block-size analysis of
// [23] and [1]: a block-size sweep trades hash time against shipped bytes,
// with the analytic miss probability of narrow checksums.
func E3BlockSize(mib int, blockSizes []int) *trace.Table {
	tb := trace.NewTable(
		"E3 — probabilistic checkpointing: block-size sweep (pointer-chase workload)",
		"block(B)", "delta(MB)", "hash-time(ms)", "blocks-changed", "P[miss]@16bit")
	for _, bs := range blockSizes {
		prog := workload.PointerChase{MiB: mib, WriteEvery: 16, Seed: 5}
		k := newMachine("e3", prog)
		p, _ := k.Spawn(prog.Name())
		workload.SetIterations(p, 1<<30)
		runTo(k, p, 4096)
		k.Stop(p)

		acc := &checkpoint.KernelAccessor{K: k, P: p}
		led := costmodel.NewLedger()
		trk, err := checkpoint.NewHashTracker(acc, led, k.CM, bs, 16)
		if err != nil {
			continue
		}
		if err := trk.Arm(); err != nil {
			continue
		}
		k.Wake(p)
		runTo(k, p, p.Regs().PC+4096)
		k.Stop(p)
		led.Reset()
		rs, err := trk.Collect()
		if err != nil {
			continue
		}
		bytes := 0
		for _, r := range rs {
			bytes += r.Length
		}
		nBlocks := bytes / bs
		tb.Row(bs, mb(bytes), led.Total.Millis(), nBlocks,
			fmt.Sprintf("%.2e", trk.MissProbability(nBlocks)))
		trk.Close()
	}
	// Hybrid row: page tracking narrows hashing to dirty pages only.
	{
		prog := workload.PointerChase{MiB: mib, WriteEvery: 16, Seed: 5}
		k := newMachine("e3h", prog)
		p, _ := k.Spawn(prog.Name())
		workload.SetIterations(p, 1<<30)
		runTo(k, p, 4096)
		k.Stop(p)
		led := costmodel.NewLedger()
		trk, err := checkpoint.NewHybridTracker(k, p, led, 256)
		if err == nil && trk.Arm() == nil {
			if _, err := trk.Collect(); err == nil { // baseline
				k.Wake(p)
				runTo(k, p, p.Regs().PC+4096)
				k.Stop(p)
				led.Reset()
				if rs, err := trk.Collect(); err == nil {
					bytes := 0
					for _, r := range rs {
						bytes += r.Length
					}
					tb.Row("hybrid-256", mb(bytes), led.Total.Millis(), bytes/256, "0 (exact)")
				}
			}
			trk.Close()
		}
	}

	// Adaptive row.
	prog := workload.PointerChase{MiB: mib, WriteEvery: 16, Seed: 5}
	k := newMachine("e3a", prog)
	p, _ := k.Spawn(prog.Name())
	workload.SetIterations(p, 1<<30)
	runTo(k, p, 4096)
	k.Stop(p)
	acc := &checkpoint.KernelAccessor{K: k, P: p}
	atrk, err := checkpoint.NewAdaptiveTracker(acc, costmodel.Discard{}, k.CM, nil)
	if err == nil && atrk.Arm() == nil {
		for e := 0; e < 4; e++ {
			k.Wake(p)
			runTo(k, p, p.Regs().PC+4096)
			k.Stop(p)
			_, _ = atrk.Collect()
		}
		tb.Note("adaptive tracker [1] converged to block size %d B", atrk.Granularity())
		atrk.Close()
	}
	tb.Note("paper [23]: finer blocks shrink deltas at higher hash cost; checksum width sets the miss risk")
	return tb
}

// E4Agents measures §4.1's comparison of the three system-level agents
// under background load: the kernel-signal path defers to the target's
// next kernel→user transition, the self-checkpointing syscall path waits
// for the application's next checkpoint call, and the kernel-thread path
// depends on its scheduling class.
func E4Agents(loads []int) *trace.Table {
	tb := trace.NewTable(
		"E4 — initiation delay and total latency of system-level agents vs background load",
		"load", "agent", "init-delay(ms)", "total(ms)")
	for _, load := range loads {
		type agent struct {
			label string
			mk    func() mechanism.Mechanism
		}
		agents := []agent{
			{"kthread-FIFO(CRAK)", func() mechanism.Mechanism { return syslevel.NewCRAK() }},
			{"kthread-OTHER", func() mechanism.Mechanism { return syslevel.NewCRAKWithPolicy(proc.SchedOther, 20) }},
			{"ksignal(EPCKPT)", func() mechanism.Mechanism { return syslevel.NewEPCKPT() }},
			{"syscall(VMADump)", func() mechanism.Mechanism { return syslevel.NewVMADump(0, nil) }},
		}
		for _, a := range agents {
			m := a.mk()
			prog := workload.Sparse{MiB: 4, WriteFrac: 0.1, Seed: 3}
			prepared := m.Prepare(prog)
			progs := []kernel.Program{prepared}
			for i := 0; i < load; i++ {
				progs = append(progs, workload.Spin{Tag: fmt.Sprintf("bg%d", i)})
			}
			k := newMachine("e4", progs...)
			if err := m.Install(k); err != nil {
				continue
			}
			p, err := k.Spawn(prepared.Name())
			if err != nil {
				continue
			}
			_ = m.Setup(k, p)
			workload.SetIterations(p, 1<<30)
			for i := 0; i < load; i++ {
				bg, _ := k.Spawn(workload.Spin{Tag: fmt.Sprintf("bg%d", i)}.Name())
				workload.SetIterations(bg, 1<<30)
			}
			k.RunFor(5 * simtime.Millisecond)
			tk, err := mechanism.Checkpoint(m, k, p, localDisk(), nil)
			if err != nil {
				continue
			}
			tb.Row(load, a.label, tk.InitiationDelay().Millis(), tk.Total().Millis())
		}
	}
	tb.Note("paper §4.1: signal delivery is deferred to the target's next kernel→user transition;")
	tb.Note("a SCHED_FIFO kernel thread runs to completion regardless of load")
	return tb
}
