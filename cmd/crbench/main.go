// Command crbench runs the derived experiments E1–E20 (DESIGN.md §3) and
// prints their results. Each experiment turns one of the paper's
// qualitative claims into a measured result on the simulated substrate.
// Every experiment but E9 returns experiments.Record values, printed as
// one table each and judged by the experiments.Gates table; E9, Table
// 1's categorical restart matrix, prints as a table.
//
// Usage:
//
//	crbench            # run every experiment
//	crbench -e 4       # run only E4
//	crbench -e 1,5,9   # run a subset
//	crbench -quick     # smaller parameters (CI-sized)
//	crbench -e 1,2,3,4,5,6,7,8,10,11,12,13,14,15,16,17,18,19,20 -json BENCH_gates.json
//	                   # also write the selected experiments' records as
//	                   # JSON; exit 1 if any gate fails or a sim-clock
//	                   # record differs from the file it overwrites
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

func main() {
	sel := flag.String("e", "", "comma-separated experiment numbers (default: all)")
	quick := flag.Bool("quick", false, "smaller parameters")
	out := flag.String("json", "", "write the selected experiments' records to this JSON file; exit 1 if a gate fails or a sim record differs from the file's previous contents")
	flag.Parse()

	want := map[int]bool{}
	if *sel != "" {
		for _, part := range strings.Split(*sel, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 || n > 20 {
				fmt.Fprintf(os.Stderr, "crbench: bad experiment %q (want 1..20)\n", part)
				os.Exit(2)
			}
			want[n] = true
		}
	}
	run := func(n int) bool { return len(want) == 0 || want[n] }

	var recs []experiments.Record
	for _, e := range experiments.All {
		if !run(e.N) {
			continue
		}
		if e.Table != nil {
			fmt.Print(e.Table())
		} else {
			rs := e.Run(*quick)
			recs = append(recs, rs...)
			fmt.Print(experiments.RecordTable(e.Title, rs))
		}
		fmt.Println()
	}

	if *out == "" {
		return
	}
	// The file being overwritten is the pin: every sim-clock record of
	// the experiments just run must repeat it exactly.
	var pinned []experiments.Record
	if old, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(old, &pinned); err != nil {
			fail(fmt.Errorf("%s: %v", *out, err))
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		fail(err)
	}
	blob, err := experiments.MarshalRecords(recs)
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %d records to %s\n", len(recs), *out)
	bad := false
	for _, v := range experiments.Check(recs) {
		fmt.Fprintln(os.Stderr, "crbench: gate failed:", v)
		bad = true
	}
	for _, d := range experiments.SimDiff(pinned, recs) {
		fmt.Fprintf(os.Stderr, "crbench: sim record differs from the previous %s: %s\n", *out, d)
		bad = true
	}
	if bad {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "crbench:", err)
	os.Exit(1)
}
