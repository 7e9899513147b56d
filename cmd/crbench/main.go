// Command crbench runs the derived experiments E1–E20 (DESIGN.md §3) and
// prints their tables. Each experiment turns one of the paper's
// qualitative claims into a measured result on the simulated substrate.
// E1–E13 print bespoke tables; E14–E20 return experiments.Record values,
// printed as one table each and judged by the experiments.Gates table.
//
// Usage:
//
//	crbench            # run every experiment
//	crbench -e 4       # run only E4
//	crbench -e 1,5,9   # run a subset
//	crbench -quick     # smaller parameters (CI-sized)
//	crbench -e 14,15,16,17,18,19,20 -json BENCH_gates.json
//	                   # also write the selected E14–E20 records as JSON;
//	                   # exit 1 if any gate fails
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/trace"
)

// writeRecords writes recs to path as a JSON array, one record per line
// so a re-run diffs record by record.
func writeRecords(path string, recs []experiments.Record) error {
	var b strings.Builder
	b.WriteString("[\n")
	for i, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		b.Write(line)
		if i < len(recs)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func main() {
	sel := flag.String("e", "", "comma-separated experiment numbers (default: all)")
	quick := flag.Bool("quick", false, "smaller parameters")
	out := flag.String("json", "", "write the selected E14–E20 records to this JSON file; exit 1 if a gate fails")
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

	sizes := []int{1, 4, 16, 64}
	e2mib, e3mib, e7mib := 16, 8, 8
	loads := []int{0, 2, 4, 8, 16}
	mtbfs := []float64{2, 4, 8, 24, 72}
	ranks := []int{2, 4, 8, 16}
	losses := []float64{0, 0.05}
	chaosSeeds := 200
	if *quick {
		sizes = []int{1, 4}
		e2mib, e3mib, e7mib = 4, 2, 2
		loads = []int{0, 8}
		mtbfs = []float64{8, 24}
		ranks = []int{2, 8}
		losses = []float64{0.05}
		chaosSeeds = 25
	}

	var recs []experiments.Record
	records := func(title string, exp func(quick bool) []experiments.Record) func() *trace.Table {
		return func() *trace.Table {
			rs := exp(*quick)
			recs = append(recs, rs...)
			return experiments.RecordTable(title, rs)
		}
	}
	tables := []struct {
		n  int
		fn func() *trace.Table
	}{
		{1, func() *trace.Table { return experiments.E1UserVsSystem(sizes) }},
		{2, func() *trace.Table { return experiments.E2Incremental(e2mib) }},
		{3, func() *trace.Table { return experiments.E3BlockSize(e3mib, []int{64, 128, 256, 512, 1024, 2048, 4096}) }},
		{4, func() *trace.Table { return experiments.E4Agents(loads) }},
		{5, func() *trace.Table { return experiments.E5Storage(mtbfs) }},
		{6, func() *trace.Table { return experiments.E6Interval(8) }},
		{7, func() *trace.Table { return experiments.E7Hardware(e7mib) }},
		{8, func() *trace.Table { return experiments.E8MPI(ranks, 4) }},
		{9, func() *trace.Table { return experiments.E9Matrix() }},
		{10, func() *trace.Table { return experiments.E10Extras() }},
		{11, func() *trace.Table { return experiments.E11StorageFaults(0.10) }},
		{12, func() *trace.Table { return experiments.E12Detection(losses) }},
		{13, func() *trace.Table { return experiments.E13ChaosSweep(1, chaosSeeds) }},
		{14, records("E14 — incremental shipping vs full images: bytes shipped and restore read across dirty rates", experiments.E14)},
		{15, records("E15 — sharded capture throughput vs worker count, pipelined publish latency", experiments.E15)},
		{16, records("E16 — restore latency vs chain depth and replay width, folded chain, failover restores", experiments.E16)},
		{17, records("E17 — replication write overhead, degraded restore, replicated failover restores", experiments.E17)},
		{18, records("E18 — fleet scale: detection and failover latency vs fleet size", experiments.E18)},
		{19, records("E19 — lazy restore: TTFI vs eager full restore of a 16-delta chain", experiments.E19)},
		{20, records("E20 — policy-driven cadence and content vs fixed/full twins", experiments.E20)},
	}
	for _, t := range tables {
		if !run(t.n) {
			continue
		}
		fmt.Print(t.fn())
		fmt.Println()
	}

	if *out == "" {
		return
	}
	if err := writeRecords(*out, recs); err != nil {
		fmt.Fprintln(os.Stderr, "crbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d records to %s\n", len(recs), *out)
	if vs := experiments.Check(recs); len(vs) > 0 {
		for _, v := range vs {
			fmt.Fprintln(os.Stderr, "crbench: gate failed:", v)
		}
		os.Exit(1)
	}
}
