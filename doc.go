// Package repro is a complete, executable reproduction of "Current
// Practice and a Direction Forward in Checkpoint/Restart Implementations
// for Fault Tolerance" (Sancho, Petrini, Davis, Gioiosa, Jiang — LANL,
// IPPS 2005).
//
// The paper surveys checkpoint/restart (C/R) implementations for fault
// tolerance in large-scale Linux clusters; this package turns that survey
// into a running system. It provides:
//
//   - a deterministic simulated operating system (processes, virtual
//     memory with page protection and faults, signals, a priority
//     scheduler, a filesystem with /proc and /dev, loadable kernel
//     modules, kernel threads) with an explicit 2005-calibrated cost
//     model;
//   - working implementations of all twelve surveyed mechanisms —
//     VMADump, BProc, EPCKPT, CRAK, ZAP, UCLiK, CHPOX, BLCR, LAM/MPI,
//     PsncR/C, Software Suspend, and Checkpoint — each built from exactly
//     the kernel facilities its real counterpart uses, plus the
//     user-level schemes of §3 (libckpt, Condor-style signal handlers,
//     Esky timers, LD_PRELOAD, libtckpt) and the hardware schemes of
//     §4.2 (ReVive, SafetyNet);
//   - TICK, the paper's "direction forward" made concrete: a transparent,
//     incremental, automatically-initiated kernel-level checkpointer;
//   - the fault-tolerance substrate of §1: clusters with fail-stop
//     failure injection, local/remote stable storage, Young/Daly interval
//     policy, an autonomic MTBF-adaptive manager, process migration, gang
//     scheduling, and coordinated checkpointing of MPI-style parallel
//     jobs.
//
// The survey's Figure 1 (taxonomy) and Table 1 (feature matrix) are
// regenerated from the live implementations by cmd/crsurvey; the
// experiments derived from the paper's qualitative claims (E1–E20 in
// DESIGN.md) are run by cmd/crbench and the benchmarks in bench_test.go.
//
// Quick start
//
//	reg := repro.NewRegistry()
//	app := repro.Dense{MiB: 64}
//	reg.MustRegister(app)
//	k := repro.NewMachine("node0", reg)
//
//	m := repro.NewCRAK()          // pick any surveyed mechanism
//	_ = m.Install(k)              // load the kernel module
//	p, _ := k.Spawn(app.Name())
//	disk := repro.NewLocalDisk("disk0")
//
//	tk, _ := repro.Checkpoint(m, k, p, disk) // ioctl → kernel thread → image
//	k.Exit(p, 137)                           // the process dies
//	chain, _ := repro.LoadChain(disk, tk.Image().ObjectName())
//	p2, _ := m.Restart(k, chain, true)       // resumes bit-exactly
//
// See the examples/ directory for runnable end-to-end scenarios.
package repro
