// Command crsurvey regenerates the paper's two artifacts from the live
// implementations: Figure 1 (the classification of checkpoint/restart
// implementations) and Table 1 (the feature matrix of the twelve surveyed
// systems), and diffs the probed matrix against the published one.
//
// Usage:
//
//	crsurvey            # print both artifacts and the diff
//	crsurvey -figure1   # only the taxonomy tree
//	crsurvey -table1    # only the feature matrix
//	crsurvey -extended  # add the user-level schemes and TICK as extra rows
//
// The chaos subcommand drives the deterministic simulation-testing
// harness (the nightly sweep and the replay/shrink workflow for a
// failing seed). Seed s runs feature row s mod 12 of the generator's
// pairwise covering array, so any 12 consecutive seeds compose every
// pair of features (delta chains, compaction, liveness, pipelining,
// replication, sharded detection, lazy restore, youngdaly cadence):
//
//	crsurvey chaos -seeds 10000          # sweep seeds 1..10000, exit 1 on any violation
//	crsurvey chaos -start 5000 -seeds 10 # sweep a different block
//	crsurvey chaos -broken -seeds 100    # fencing disabled: prove the harness catches it
//	crsurvey chaos -replay 42            # re-run one seed, print its event log
//	crsurvey chaos -replay 42 -spec '{...}' -shrink
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/chaos"
	"repro/internal/simtime"
	"repro/internal/taxonomy"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "chaos" {
		chaosMain(os.Args[2:])
		return
	}
	fig := flag.Bool("figure1", false, "print only Figure 1 (taxonomy tree)")
	tab := flag.Bool("table1", false, "print only Table 1 (feature matrix)")
	ext := flag.Bool("extended", false, "extend Table 1 with user-level schemes and TICK")
	flag.Parse()

	both := !*fig && !*tab

	if *fig || both {
		fmt.Println("Figure 1 — Classification of the checkpoint/restart implementations")
		fmt.Println()
		fmt.Print(repro.Figure1())
		fmt.Println()
	}
	if *tab || both {
		rows := repro.ProbeTable1()
		if *ext {
			extras := []repro.Mechanism{
				repro.NewLibCkpt(0, nil, false),
				repro.NewLibCkpt(0, nil, true),
				repro.NewCondorStyle(),
				repro.NewEskyStyle(simtime.Minute, nil),
				repro.NewPreloadShim(),
				repro.NewLibTckpt(0, nil),
				repro.NewTICK(),
			}
			for _, m := range extras {
				rows = append(rows, m.Features())
			}
		}
		fmt.Println("Table 1 — Feature matrix, probed from the live implementations")
		fmt.Println()
		fmt.Print(taxonomy.RenderTable(rows))
		fmt.Println()

		diffs := repro.Table1Diff()
		if len(diffs) == 0 {
			fmt.Println("✓ probed matrix matches the paper's Table 1 exactly")
		} else {
			fmt.Println("✗ mismatches against the paper's Table 1:")
			for _, d := range diffs {
				fmt.Println("  " + d)
			}
			os.Exit(1)
		}
	}
}

// chaosMain is the chaos subcommand: seed sweeps for CI and the
// replay → confirm → shrink workflow for a failing seed.
func chaosMain(args []string) {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	seeds := fs.Int("seeds", 200, "number of consecutive seeds to sweep")
	start := fs.Int64("start", 1, "first seed of the sweep")
	broken := fs.Bool("broken", false, "disable epoch fencing (the deliberately broken build)")
	replay := fs.Int64("replay", 0, "replay one seed instead of sweeping")
	spec := fs.String("spec", "", "replay this spec JSON (from a printed replay line) instead of regenerating from the seed")
	shrink := fs.Bool("shrink", false, "shrink a violating replay to a minimal reproducer")
	fs.Parse(args)

	if *replay != 0 || *spec != "" {
		sp := &chaos.Spec{}
		if *spec == "" {
			sp = chaos.Generate(*replay)
		} else {
			var err error
			if sp, err = chaos.ParseSpec(*spec); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			if *replay != 0 {
				sp.Seed = *replay
			}
		}
		sp.NoFencing = sp.NoFencing || *broken
		r := chaos.Run(sp)
		fmt.Println(r.Summary())
		fmt.Print(r.EventLog)
		if len(r.Violations) == 0 {
			return
		}
		for _, v := range r.Violations {
			fmt.Println("violation:", v)
		}
		if *shrink {
			min, evals := chaos.Shrink(r.Spec, r.Violations[0].Invariant)
			fmt.Printf("shrunk size %d -> %d in %d runs\n", r.Spec.Size(), min.Size(), evals)
			fmt.Println("reproduce:", min.ReplayLine())
		} else {
			fmt.Println("reproduce:", r.Spec.ReplayLine())
		}
		os.Exit(1)
	}

	bad := 0
	for i := 0; i < *seeds; i++ {
		sp := chaos.Generate(*start + int64(i))
		sp.NoFencing = *broken
		r := chaos.Run(sp)
		if len(r.Violations) == 0 {
			continue
		}
		bad++
		// Confirm determinism, then print a shrunken reproducer: the
		// exact lines a failing nightly run needs in its log.
		if ok, _, _ := chaos.Confirm(sp); !ok {
			fmt.Printf("seed %d: NONDETERMINISTIC (digests differ across identical runs)\n", sp.Seed)
			continue
		}
		fmt.Printf("seed %d: %s\n", sp.Seed, r.Summary())
		for _, v := range r.Violations {
			fmt.Println("  violation:", v)
		}
		min, _ := chaos.Shrink(sp, r.Violations[0].Invariant)
		fmt.Println("  reproduce:", min.ReplayLine())
	}
	fmt.Printf("chaos sweep: %d seeds starting at %d, %d with violations\n", *seeds, *start, bad)
	if bad > 0 {
		os.Exit(1)
	}
}
