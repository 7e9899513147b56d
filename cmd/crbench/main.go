// Command crbench runs the derived experiments E1–E20 (DESIGN.md §3) and
// prints their tables. Each experiment turns one of the paper's
// qualitative claims into a measured result on the simulated substrate.
//
// Usage:
//
//	crbench            # run every experiment
//	crbench -e 4       # run only E4
//	crbench -e 1,5,9   # run a subset
//	crbench -quick     # smaller parameters (CI-sized)
//	crbench -benchckpt BENCH_incremental.json
//	                   # write the E14 full-vs-delta summaries as JSON
//	crbench -bench5 BENCH_5.json
//	                   # write the E15 parallel-capture / pipelined-shipping
//	                   # bench (capture throughput, publish and restore
//	                   # latency) as JSON
//	crbench -bench6 BENCH_6.json
//	                   # write the E16 restore bench (chain depth × replay
//	                   # width sweep, compacted chain, failover-measured
//	                   # restore latency) as JSON
//	crbench -bench7 BENCH_7.json
//	                   # write the E17 replication bench (publish overhead
//	                   # per placement mode, degraded-restore latency with
//	                   # the owner's disk lost, failover-measured restore
//	                   # p50 under buddy and erasure placement) as JSON
//	crbench -bench8 BENCH_8.json
//	                   # write the E18 fleet-scale bench (events/sec,
//	                   # detection and failover latency at 1k and 10k
//	                   # nodes; gates the 1k→10k detect-p99 ratio at 2x)
//	                   # as JSON
//	crbench -bench9 BENCH_9.json
//	                   # write the E19 lazy-restore bench (time-to-first-
//	                   # instruction vs eager full restore of a 16-delta
//	                   # chain, drained-digest equivalence, lazy-vs-eager
//	                   # cluster failover twins; gates TTFI <= 0.25x eager
//	                   # with byte-identical memory) as JSON
//	crbench -bench10 BENCH_10.json
//	                   # write the E20 policy bench (Young/Daly cadence vs
//	                   # fixed twin on the same fault schedule, liveness
//	                   # delta chain vs tracker baseline; gates work-lost
//	                   # <= 0.8x fixed and delta bytes <= 0.9x baseline
//	                   # with the restored live state byte-identical) as
//	                   # JSON
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

// benchMode is one machine-readable bench: -flag FILE runs it, writes
// its result to FILE as indented JSON, prints the report, and exits
// nonzero when the bench's gate fails.
type benchMode struct {
	flag, usage string
	run         func(quick bool) (result any, pass bool)
	report      func(result any)
}

// benchModes in precedence order: when several flags are set, the first
// listed here runs.
var benchModes = []benchMode{
	{"bench10", "write the E20 policy bench to this JSON file and exit",
		func(quick bool) (any, bool) { s := experiments.E20Bench(quick); return s, s.GatePass },
		func(v any) {
			s := v.(experiments.E20Summary)
			for _, c := range []experiments.E20CadenceSummary{s.Fixed, s.YoungDaly} {
				fmt.Printf("%-10s completed=%v failures=%d work-lost %.2f ms, %d ckpts, %d recomputes, final interval %.3f ms\n",
					c.Policy, c.Completed, c.Failures, c.WorkLostMs, c.Checkpoints, c.Recomputes, c.FinalIntervalMs)
			}
			fmt.Printf("work-lost ratio youngdaly/fixed %.2fx (gate <= 0.8x), fingerprints match=%v\n",
				s.WorkLostRatio, s.FingerprintsMatch)
			lv := s.Liveness
			fmt.Printf("liveness chain %d bytes vs baseline %d (%.2fx, gate <= 0.9x), excluded %d, live digest match=%v, fingerprints at reference=%v\n",
				lv.FilteredBytes, lv.BaselineBytes, lv.BytesRatio, lv.ExcludedBytes, lv.LiveDigestMatch, lv.FingerprintMatch)
		}},
	{"bench9", "write the E19 lazy-restore bench to this JSON file and exit",
		func(quick bool) (any, bool) { s := experiments.E19Bench(quick); return s, s.GatePass },
		func(v any) {
			s := v.(experiments.E19Summary)
			for _, p := range s.Points {
				fmt.Printf("w=%d: eager %.2f ms, ttfi %.2f ms (%.2fx), drained %.2f ms, digest==eager %v\n",
					p.Workers, p.EagerMs, p.TTFIMs, p.VsEager, p.DrainedMs, p.DigestMatch)
			}
			fmt.Printf("cluster twins: eager restore p50 %.2f ms vs lazy first-instr p50 %.2f ms (%d lazy restores, %d faults served, %d prefetched); fingerprints match=%v\n",
				s.Eager.RestoreP50Ms, s.Lazy.FirstInstrP50Ms,
				s.Lazy.LazyRestores, s.Lazy.FaultsServed, s.Lazy.Prefetched, s.FingerprintsMatch)
		}},
	{"bench8", "write the E18 fleet-scale bench to this JSON file and exit",
		func(quick bool) (any, bool) { s := experiments.E18Bench(quick); return s, s.AllPass && s.RatioWithin2x },
		func(v any) {
			s := v.(experiments.E18Summary)
			for _, p := range s.Points {
				fmt.Printf("%-10s %5d nodes / %2d shards: %8.0f events/s, detect p99 %.2f ms, failover p99 %.2f ms, %d timers, pass=%v\n",
					p.Name, p.Nodes, p.Shards, p.EventsPerSec, p.DetectP99Ms, p.FailoverP99Ms, p.Timers, p.Pass)
			}
			fmt.Printf("1k→10k detect p99 ratio %.2fx (gate: <= 2x): %v\n", s.DetectRatio, s.RatioWithin2x)
		}},
	{"bench7", "write the E17 replication bench to this JSON file and exit",
		func(quick bool) (any, bool) { s := experiments.E17Bench(quick); return s, s.DegradedWithin2x },
		func(v any) {
			s := v.(experiments.E17Summary)
			for i, w := range s.Write {
				r := s.Restore[i]
				fmt.Printf("%-7s publish %.2f ms (%.2fx), stored %.2fx, restore healthy %.2f ms degraded %.2f ms\n",
					w.Mode, w.PublishMs, w.Overhead, w.Redundancy, r.HealthyMs, r.DegradedMs)
			}
			for _, c := range s.Clusters {
				fmt.Printf("cluster %-7s restore p50 %.2f ms p99 %.2f ms over %d failover(s); reads l/b/s/rc/r = %d/%d/%d/%d/%d\n",
					c.Mode, c.P50Ms, c.P99Ms, c.Restores,
					c.ReadLocal, c.ReadBuddy, c.ReadShards, c.ReadReconstruct, c.ReadRemote)
			}
			fmt.Printf("degraded restore within 2x of the BENCH_6-style baseline (%.2f ms): %v\n",
				s.BaselineP50Ms, s.DegradedWithin2x)
		}},
	{"bench6", "write the E16 restore bench to this JSON file and exit",
		func(quick bool) (any, bool) { return experiments.E16Bench(quick), true },
		func(v any) {
			s := v.(experiments.E16Summary)
			fmt.Printf("full read baseline: %.2f ms\n", s.FullReadMs)
			for _, pt := range s.Points {
				fmt.Printf("restore %2d delta(s) × %d worker(s): %.2f ms (%.2fx vs full)\n",
					pt.Deltas, pt.Workers, pt.LatencyMs, pt.VsFull)
			}
			fmt.Printf("after fold (%d deltas → chain of %d): %.2f ms (%.2fx vs full)\n",
				s.Compacted.DeltasBefore, s.Compacted.ChainLen, s.Compacted.LatencyMs, s.Compacted.VsFull)
			fmt.Printf("cluster (CompactAfter=%d): restore p50 %.2f ms, p99 %.2f ms over %d failover(s); %d fold(s), %d delta(s) retired\n",
				s.Cluster.CompactAfter, s.Cluster.P50Ms, s.Cluster.P99Ms, s.Cluster.Restores,
				s.Cluster.Folds, s.Cluster.FoldedDeltas)
		}},
	{"bench5", "write the E15 parallel-capture bench to this JSON file and exit",
		func(quick bool) (any, bool) { return experiments.E15Bench(quick), true },
		func(v any) {
			s := v.(experiments.E15Summary)
			for _, pt := range s.Capture {
				fmt.Printf("capture %d worker(s): %.2f ms, %.1f MB/s (%.2fx)\n",
					pt.Workers, pt.LatencyMs, pt.ThroughputMBs, pt.Speedup)
			}
			fmt.Printf("publish latency: p50 %.2f ms, p99 %.2f ms over %d publishes (%d batched, %d stalls)\n",
				s.Publish.P50Ms, s.Publish.P99Ms, s.Publish.N, s.Publish.Batched, s.Publish.Stalls)
			fmt.Printf("restore: chain of %d read in %.2f ms\n", s.Restore.ChainLen, s.Restore.ReadMs)
		}},
	{"benchckpt", "write the E14 incremental-shipping bench to this JSON file and exit",
		func(quick bool) (any, bool) { return experiments.E14Bench(quick), true },
		func(v any) {
			for _, s := range v.([]experiments.E14Summary) {
				fmt.Printf("dirty %.2f: full %.1f KiB/ckpt, delta %.1f KiB/ckpt (reduction %.0f%%), restore %.2f ms vs %.2f ms\n",
					s.DirtyRate, s.FullBytesPerCkpt/1024, s.DeltaBytesPerCkpt/1024,
					100*s.Reduction, s.FullRestoreMs, s.DeltaRestoreMs)
			}
		}},
}

// writeJSON writes v to path as indented JSON with a trailing newline.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	sel := flag.String("e", "", "comma-separated experiment numbers (default: all)")
	quick := flag.Bool("quick", false, "smaller parameters")
	outs := make([]*string, len(benchModes))
	for i, b := range benchModes {
		outs[i] = flag.String(b.flag, "", b.usage)
	}
	flag.Parse()

	for i, b := range benchModes {
		if *outs[i] == "" {
			continue
		}
		result, pass := b.run(*quick)
		if err := writeJSON(*outs[i], result); err != nil {
			fmt.Fprintln(os.Stderr, "crbench:", err)
			os.Exit(1)
		}
		b.report(result)
		fmt.Println("wrote", *outs[i])
		if !pass {
			os.Exit(1)
		}
		return
	}

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
		{14, func() *trace.Table { return experiments.E14Incremental(*quick) }},
		{15, func() *trace.Table { return experiments.E15Parallel(*quick) }},
		{16, func() *trace.Table { return experiments.E16Restore(*quick) }},
		{17, func() *trace.Table { return experiments.E17Replication(*quick) }},
		{18, func() *trace.Table { return experiments.E18Scale(*quick) }},
		{19, func() *trace.Table { return experiments.E19Lazy(*quick) }},
		{20, func() *trace.Table { return experiments.E20Policy(*quick) }},
	}
	for _, t := range tables {
		if !run(t.n) {
			continue
		}
		fmt.Print(t.fn())
		fmt.Println()
	}
}
