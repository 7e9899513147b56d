// Command ckptctl is the interactive driver: it boots a simulated
// machine, runs a workload, checkpoints it with a chosen mechanism
// (the cr_checkpoint analogue), kills the process, restarts it (the
// cr_restart analogue), and verifies the result matches an untouched run.
//
// Usage:
//
//	ckptctl                          # defaults: CRAK + sparse 16 MiB
//	ckptctl -mech blcr -mib 64
//	ckptctl -mech tick -incremental-chain 4
//	ckptctl -workload stencil -kill-halfway=false
//	ckptctl -list                    # available mechanisms and workloads
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/simos/proc"
)

var mechs = map[string]func() repro.Mechanism{
	"vmadump":  func() repro.Mechanism { return repro.NewVMADump(0, nil) },
	"epckpt":   func() repro.Mechanism { return repro.NewEPCKPT() },
	"crak":     func() repro.Mechanism { return repro.NewCRAK() },
	"uclik":    func() repro.Mechanism { return repro.NewUCLiK() },
	"chpox":    func() repro.Mechanism { return repro.NewCHPOX() },
	"blcr":     func() repro.Mechanism { return repro.NewBLCR() },
	"psncrc":   func() repro.Mechanism { return repro.NewPsncRC() },
	"ckptfork": func() repro.Mechanism { return repro.NewCheckpointFork(0, nil) },
	"tick":     func() repro.Mechanism { return repro.NewTICK() },
	"libckpt":  func() repro.Mechanism { return repro.NewLibCkpt(0, nil, false) },
	"condor":   func() repro.Mechanism { return repro.NewCondorStyle() },
	"libtckpt": func() repro.Mechanism { return repro.NewLibTckpt(0, nil) },
}

func workloadFor(name string, mib int) (repro.Program, error) {
	switch name {
	case "dense":
		return repro.Dense{MiB: mib}, nil
	case "sparse":
		return repro.Sparse{MiB: mib, WriteFrac: 0.1, Seed: 7}, nil
	case "stencil":
		return repro.Stencil{MiB: mib}, nil
	case "chase":
		return repro.PointerChase{MiB: mib, Seed: 7}, nil
	case "mt":
		return repro.MultiThreaded{MiB: mib, NThreads: 4}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (dense|sparse|stencil|chase|mt)", name)
	}
}

func main() {
	mechName := flag.String("mech", "crak", "mechanism to use")
	wlName := flag.String("workload", "sparse", "workload (dense|sparse|stencil|chase|mt)")
	mib := flag.Int("mib", 16, "workload size in MiB")
	iters := flag.Uint64("iters", 16, "workload iterations")
	chain := flag.Int("incremental-chain", 1, "number of checkpoints before the kill (TICK chains them)")
	list := flag.Bool("list", false, "list mechanisms and workloads")
	flag.Parse()

	if *list {
		fmt.Println("mechanisms:")
		for name := range mechs {
			fmt.Println("  " + name)
		}
		fmt.Println("workloads: dense sparse stencil chase mt")
		return
	}
	if err := drive(*mechName, *wlName, *mib, *iters, *chain); err != nil {
		fmt.Fprintln(os.Stderr, "ckptctl:", err)
		os.Exit(1)
	}
}

func drive(mechName, wlName string, mib int, iters uint64, chainLen int) error {
	mk, ok := mechs[mechName]
	if !ok {
		return fmt.Errorf("unknown mechanism %q (try -list)", mechName)
	}
	wl, err := workloadFor(wlName, mib)
	if err != nil {
		return err
	}

	// Reference run: the ground truth this session must reproduce.
	ref := mk()
	refProg := ref.Prepare(wl)
	regR := repro.NewRegistry()
	regR.MustRegister(refProg)
	kr := repro.NewMachine("ref", regR)
	if err := ref.Install(kr); err != nil {
		return err
	}
	pr, err := kr.Spawn(refProg.Name())
	if err != nil {
		return err
	}
	if err := ref.Setup(kr, pr); err != nil {
		return err
	}
	repro.SetIterations(pr, iters)
	if !kr.RunUntilExit(pr, kr.Now().Add(10*repro.Minute)) {
		return fmt.Errorf("reference run did not finish")
	}
	want := repro.Fingerprint(pr)
	fmt.Printf("reference run      : fingerprint %#016x in %v simulated\n", want, kr.Now())

	// Checkpointed run.
	m := mk()
	prog := m.Prepare(wl)
	reg := repro.NewRegistry()
	reg.MustRegister(prog)
	k := repro.NewMachine("node0", reg)
	if err := m.Install(k); err != nil {
		return err
	}
	p, err := k.Spawn(prog.Name())
	if err != nil {
		return err
	}
	if err := m.Setup(k, p); err != nil {
		return err
	}
	repro.SetIterations(p, iters)
	disk := repro.NewLocalDisk("disk0")

	var leaf string
	for c := 0; c < chainLen; c++ {
		target := p.Regs().PC + max(1, iters/uint64(chainLen+1))
		for p.Regs().PC < target && p.State != proc.StateZombie {
			k.RunFor(100 * repro.Microsecond)
		}
		if p.State == proc.StateZombie {
			return fmt.Errorf("workload finished before checkpoint %d", c+1)
		}
		tk, err := repro.Checkpoint(m, k, p, disk)
		if err != nil {
			return fmt.Errorf("checkpoint %d: %w", c+1, err)
		}
		leaf = tk.Img.ObjectName()
		fmt.Printf("checkpoint %-2d      : %s — %s, %.2f MB payload, %v total (init %v)\n",
			c+1, leaf, tk.Img.Mode, float64(tk.Stats.PayloadBytes)/1e6, tk.Total(), tk.InitiationDelay())
	}

	fmt.Printf("killing pid %d      : simulated failure at %v\n", p.PID, k.Now())
	k.Exit(p, 137)
	k.Procs.Remove(p.PID)

	chain, err := repro.LoadChain(disk, leaf)
	if err != nil {
		return err
	}
	fmt.Printf("restart            : chain of %d image(s)\n", len(chain))
	p2, err := m.Restart(k, chain, true)
	if err != nil {
		return err
	}
	if !k.RunUntilExit(p2, k.Now().Add(10*repro.Minute)) {
		return fmt.Errorf("restarted process did not finish")
	}
	got := repro.Fingerprint(p2)
	fmt.Printf("restarted run      : fingerprint %#016x, exit %d\n", got, p2.ExitCode)
	if got != want {
		return fmt.Errorf("MISMATCH: restarted fingerprint differs from reference")
	}
	fmt.Println("verdict            : ✓ bit-exact resume (fingerprints match)")
	return nil
}
