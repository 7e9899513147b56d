package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// Experiments are exercised with small parameters; shape assertions mirror
// EXPERIMENTS.md (who wins, by roughly what factor).

func TestE1UserCostsMoreThanSystem(t *testing.T) {
	tb := E1UserVsSystem([]int{4})
	if tb.NumRows() < 4 {
		t.Fatalf("rows = %d:\n%s", tb.NumRows(), tb)
	}
	var userSys, kernSys int64
	for i := 0; i < tb.NumRows(); i++ {
		n, err := strconv.ParseInt(tb.Cell(i, 4), 10, 64)
		if err != nil {
			t.Fatalf("syscalls cell %q", tb.Cell(i, 4))
		}
		switch tb.Cell(i, 2) {
		case "user":
			userSys += n
		case "system":
			kernSys += n
		}
	}
	// User-level extraction needs strictly more syscalls than the
	// system-level paths (which only pay the initiation round trips).
	if userSys <= kernSys {
		t.Fatalf("user syscalls %d ≤ system %d:\n%s", userSys, kernSys, tb)
	}
}

func TestE2DeltaDependsOnApplication(t *testing.T) {
	tb := E2Incremental(4)
	if tb.NumRows() < 5 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	ratios := map[string]float64{}
	for i := 0; i < tb.NumRows(); i++ {
		r, err := strconv.ParseFloat(tb.Cell(i, 3), 64)
		if err != nil {
			t.Fatalf("ratio cell %q", tb.Cell(i, 3))
		}
		ratios[tb.Cell(i, 0)] = r
	}
	dense := ratios["dense[mib=4]"]
	chase := ratios["chase[mib=4,we=64,seed=2]"]
	if dense < 0.9 {
		t.Fatalf("dense delta/full = %.3f, want ≈1:\n%s", dense, tb)
	}
	if chase > 0.2*dense {
		t.Fatalf("pointer-chase delta/full = %.3f not ≪ dense %.3f:\n%s", chase, dense, tb)
	}
}

func TestE3FinerBlocksSmallerDeltas(t *testing.T) {
	tb := E3BlockSize(2, []int{256, 1024, 4096})
	if tb.NumRows() != 4 { // 3 sweep rows + the hybrid row
		t.Fatalf("rows = %d:\n%s", tb.NumRows(), tb)
	}
	first, _ := strconv.ParseFloat(tb.Cell(0, 1), 64) // 256 B delta MB
	last, _ := strconv.ParseFloat(tb.Cell(2, 1), 64)  // 4096 B delta MB
	if first >= last {
		t.Fatalf("finer blocks did not shrink delta: %v vs %v\n%s", first, last, tb)
	}
}

func TestE4FIFOInsensitiveSignalDeferred(t *testing.T) {
	tb := E4Agents([]int{0, 8})
	if tb.NumRows() < 8 {
		t.Fatalf("rows=%d:\n%s", tb.NumRows(), tb)
	}
	get := func(load, agent string) (initMS, totalMS float64) {
		for i := 0; i < tb.NumRows(); i++ {
			if tb.Cell(i, 0) == load && tb.Cell(i, 1) == agent {
				a, _ := strconv.ParseFloat(tb.Cell(i, 2), 64)
				b, _ := strconv.ParseFloat(tb.Cell(i, 3), 64)
				return a, b
			}
		}
		t.Fatalf("row %s/%s missing:\n%s", load, agent, tb)
		return 0, 0
	}
	_, fifoIdle := get("0", "kthread-FIFO(CRAK)")
	_, fifoLoad := get("8", "kthread-FIFO(CRAK)")
	_, otherLoad := get("8", "kthread-OTHER")
	sigIdleInit, _ := get("0", "ksignal(EPCKPT)")
	sigLoadInit, _ := get("8", "ksignal(EPCKPT)")

	if otherLoad <= fifoLoad {
		t.Fatalf("SCHED_OTHER (%v ms) not slower than FIFO (%v ms) under load:\n%s", otherLoad, fifoLoad, tb)
	}
	if fifoLoad > 3*fifoIdle+1 {
		t.Fatalf("FIFO latency too load-sensitive: %v vs %v:\n%s", fifoLoad, fifoIdle, tb)
	}
	if sigLoadInit <= sigIdleInit {
		t.Fatalf("kernel-signal delivery delay did not grow with load: %v vs %v:\n%s", sigLoadInit, sigIdleInit, tb)
	}
}

func TestE5RemoteBeatsLocalBeatsNone(t *testing.T) {
	tb := E5Storage([]float64{24})
	if tb.NumRows() != 3 {
		t.Fatalf("rows=%d:\n%s", tb.NumRows(), tb)
	}
	get := func(policy string) float64 {
		for i := 0; i < tb.NumRows(); i++ {
			if tb.Cell(i, 1) == policy {
				v, err := strconv.ParseFloat(tb.Cell(i, 2), 64)
				if err != nil {
					t.Fatalf("makespan %q for %s (did not complete)", tb.Cell(i, 2), policy)
				}
				return v
			}
		}
		t.Fatalf("policy %s missing", policy)
		return 0
	}
	none, local, remote := get("none"), get("local"), get("remote")
	if !(remote < local && local < none) {
		t.Fatalf("makespans: remote %.1f local %.1f none %.1f, want remote<local<none:\n%s",
			remote, local, none, tb)
	}
}

func TestE6YoungNearOptimal(t *testing.T) {
	tb := E6Interval(8)
	var atOpt, tooShort, tooLong, adaptive float64
	for i := 0; i < tb.NumRows(); i++ {
		v, _ := strconv.ParseFloat(tb.Cell(i, 2), 64)
		switch {
		case tb.Cell(i, 1) == "fixed(=Young)":
			atOpt = v
		case i == 0:
			tooShort = v
		case tb.Cell(i, 0) == "youngdaly":
			adaptive = v
		case i == tb.NumRows()-2:
			tooLong = v
		}
	}
	if atOpt <= 0 || atOpt >= tooShort || atOpt >= tooLong {
		t.Fatalf("Young interval not near-optimal: opt %.2f short %.2f long %.2f:\n%s",
			atOpt, tooShort, tooLong, tb)
	}
	if adaptive > atOpt*1.15 {
		t.Fatalf("adaptive %.2f not within 15%% of oracle %.2f:\n%s", adaptive, atOpt, tb)
	}
}

func TestE7LineBeatsPageForSparse(t *testing.T) {
	tb := E7Hardware(2)
	if tb.NumRows() != 3 {
		t.Fatalf("rows=%d:\n%s", tb.NumRows(), tb)
	}
	// Row 0: pointer chase — huge ratio. Row 2: dense — ratio ≈1.
	chaseRatio, err := strconv.ParseFloat(tb.Cell(0, 3), 64)
	if err != nil {
		t.Fatalf("ratio cell %q", tb.Cell(0, 3))
	}
	denseRatio, _ := strconv.ParseFloat(tb.Cell(2, 3), 64)
	if chaseRatio < 8 {
		t.Fatalf("chase page/line ratio %.1f, want ≫1:\n%s", chaseRatio, tb)
	}
	if denseRatio > 1.1 {
		t.Fatalf("dense page/line ratio %.2f, want ≈1:\n%s", denseRatio, tb)
	}
}

func TestE8DrainScales(t *testing.T) {
	tb := E8MPI([]int{2, 8}, 4)
	if tb.NumRows() != 2 {
		t.Fatalf("rows=%d:\n%s", tb.NumRows(), tb)
	}
	for i := 0; i < tb.NumRows(); i++ {
		if tb.Cell(i, 4) != "true" {
			t.Fatalf("checkpoint failed for row %d:\n%s", i, tb)
		}
	}
	d2, _ := strconv.ParseFloat(tb.Cell(0, 1), 64)
	d8, _ := strconv.ParseFloat(tb.Cell(1, 1), 64)
	if d8 < d2 {
		t.Fatalf("drain(8)=%v < drain(2)=%v:\n%s", d8, d2, tb)
	}
}

func TestE9MatrixShape(t *testing.T) {
	tb := E9Matrix()
	if tb.NumRows() != 5 {
		t.Fatalf("rows=%d:\n%s", tb.NumRows(), tb)
	}
	find := func(resource string) []string {
		for i := 0; i < tb.NumRows(); i++ {
			if tb.Cell(i, 0) == resource {
				return []string{tb.Cell(i, 1), tb.Cell(i, 2), tb.Cell(i, 3), tb.Cell(i, 4)}
			}
		}
		t.Fatalf("resource %s missing", resource)
		return nil
	}
	// No special resources: everyone succeeds.
	for _, v := range find("none") {
		if v != "OK" {
			t.Fatalf("plain workload failed: %v\n%s", find("none"), tb)
		}
	}
	// Socket: only ZAP survives.
	sock := find("socket")
	if sock[3] != "OK" {
		t.Fatalf("ZAP lost the socket: %v\n%s", sock, tb)
	}
	for i := 0; i < 3; i++ {
		if sock[i] == "OK" {
			t.Fatalf("non-virtualizing mechanism %d kept the socket: %v\n%s", i, sock, tb)
		}
	}
	// PID: UCLiK and ZAP preserve it; condor and CRAK do not.
	pid := find("pid")
	if pid[2] != "OK" || pid[3] != "OK" {
		t.Fatalf("PID-preserving mechanisms failed: %v\n%s", pid, tb)
	}
	if pid[0] == "OK" || pid[1] == "OK" {
		t.Fatalf("non-PID-preserving mechanisms passed: %v\n%s", pid, tb)
	}
	// All three: only ZAP.
	all := find("all")
	if all[3] != "OK" {
		t.Fatalf("ZAP failed the full matrix: %v\n%s", all, tb)
	}
}

func TestE11StorageFaultsContrast(t *testing.T) {
	tb := E11StorageFaults(0.10)
	if tb.NumRows() != 2 {
		t.Fatalf("rows=%d:\n%s", tb.NumRows(), tb)
	}
	// Row 0 is atomic commit, row 1 the legacy in-place path. Both runs
	// must complete, and only the unsafe one may show integrity damage.
	for row := 0; row < 2; row++ {
		if tb.Cell(row, 1) != "true" {
			t.Fatalf("row %d did not complete:\n%s", row, tb)
		}
	}
	atomicTorn := tb.Cell(0, 7) + tb.Cell(0, 8) + tb.Cell(0, 9)
	if atomicTorn != "000" {
		t.Fatalf("atomic commit produced torn/lost images:\n%s", tb)
	}
	if tb.Cell(1, 7) == "0" && tb.Cell(1, 8) == "0" && tb.Cell(1, 9) == "0" {
		t.Fatalf("unsafe commit produced no torn/lost images — no contrast:\n%s", tb)
	}
}

func TestE10Runs(t *testing.T) {
	tb := E10Extras()
	out := tb.String()
	for _, want := range []string{"swsusp", "fork-ckpt", "gang"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E10 missing %s:\n%s", want, out)
		}
	}
	if tb.NumRows() < 6 {
		t.Fatalf("rows=%d:\n%s", tb.NumRows(), tb)
	}
}

func TestE12PhiUnderLossIsSafeAndFalsePositiveRecoveryCompletes(t *testing.T) {
	tb := E12Detection([]float64{0.05})
	if tb.NumRows() != 12 {
		t.Fatalf("rows=%d:\n%s", tb.NumRows(), tb)
	}
	find := func(det, scenario string) int {
		for r := 0; r < tb.NumRows(); r++ {
			if tb.Cell(r, 0) == det && tb.Cell(r, 1) == scenario {
				return r
			}
		}
		t.Fatalf("row %s/%s missing:\n%s", det, scenario, tb)
		return -1
	}
	// Split-brain safety is unconditional: no row may leak a double
	// commit, fenced or not-yet-fenced.
	for r := 0; r < tb.NumRows(); r++ {
		if tb.Cell(r, 10) != "0" {
			t.Fatalf("row %d leaked a double commit:\n%s", r, tb)
		}
	}
	// Phi-accrual under 5% heartbeat loss: completes, zero split brains.
	phi := find("phi-8", "loss 5%")
	if tb.Cell(phi, 2) != "true" {
		t.Fatalf("phi-8 under loss did not complete:\n%s", tb)
	}
	// The partition scenario is one long false positive for the job's
	// node: the failover must be wasted-but-safe AND the job must still
	// finish — the demonstrated false-positive recovery.
	part := find("phi-8", "partition 10ms")
	if tb.Cell(part, 2) != "true" {
		t.Fatalf("partition recovery did not complete:\n%s", tb)
	}
	if tb.Cell(part, 8) == "0" {
		t.Fatalf("partition produced no false positive:\n%s", tb)
	}
	if tb.Cell(part, 9) == "0" {
		t.Fatalf("stale incarnation never hit the fence:\n%s", tb)
	}
	// The oracle baseline is blind to the partition: same makespan as its
	// fault-free row would have; at minimum it must not restart for it.
	oracle := find("oracle", "partition 10ms")
	if tb.Cell(oracle, 8) != "0" || tb.Cell(oracle, 6) != tb.Cell(find("oracle", "loss 5%"), 6) {
		t.Fatalf("oracle baseline affected by control-plane faults:\n%s", tb)
	}
}

// TestE12DeterministicReplay runs the E12 autonomic scenario twice with
// the same seed and demands byte-identical counter snapshots and
// orchestration event logs: the simulation's determinism is what makes
// every other experiment (and the chaos harness's seed replay)
// trustworthy.
func TestE12DeterministicReplay(t *testing.T) {
	type snap struct{ counters, events string }
	run := func() snap {
		_, ctr, evs := e12RunFull("phi-8", 0.05, false)
		return snap{ctr, evs}
	}
	a, b := run(), run()
	if a.counters != b.counters {
		t.Errorf("counter snapshots differ:\n--- first ---\n%s\n--- second ---\n%s", a.counters, b.counters)
	}
	if a.events != b.events {
		t.Errorf("event logs differ:\n--- first ---\n%s\n--- second ---\n%s", a.events, b.events)
	}
	if a.events == "" {
		t.Error("event log empty: supervisor emitted no events")
	}
}

// TestE14DeltaWinsAtLowDirtyRate: the acceptance shape of E14 — at a low
// dirty rate delta chains ship substantially fewer bytes per checkpoint
// than full images, and the price is a longer recovery chain with a
// larger storage read time.
func TestE14DeltaWinsAtLowDirtyRate(t *testing.T) {
	full := e14Run(0.02, false, 0, 250)
	delta := e14Run(0.02, true, 8, 250)
	if !full.completed || !delta.completed {
		t.Fatalf("completed: full=%v delta=%v", full.completed, delta.completed)
	}
	if delta.bytesPerCkpt() > 0.7*full.bytesPerCkpt() {
		t.Fatalf("delta %.0f B/ckpt not ≪ full %.0f B/ckpt",
			delta.bytesPerCkpt(), full.bytesPerCkpt())
	}
	if delta.deltaAcks == 0 || delta.retired == 0 {
		t.Fatalf("delta run shipped no deltas (%d) or retired nothing (%d)",
			delta.deltaAcks, delta.retired)
	}
	if full.chainLen != 1 {
		t.Fatalf("full-image recovery chain length %d, want 1", full.chainLen)
	}
	if delta.chainLen <= 1 {
		t.Fatalf("delta recovery chain length %d, want >1", delta.chainLen)
	}
	if delta.restoreMs <= full.restoreMs {
		t.Fatalf("chain restore read %.3f ms not above full %.3f ms — tradeoff missing",
			delta.restoreMs, full.restoreMs)
	}
}

// TestE13ChaosSweepContrast: the shipped build survives a seed block
// with zero violations; the fencing-disabled build is caught by the
// double-commit checker within the same block.
func TestE13ChaosSweepContrast(t *testing.T) {
	tb := E13ChaosSweep(1, 25)
	if tb.NumRows() != 2 {
		t.Fatalf("rows=%d:\n%s", tb.NumRows(), tb)
	}
	for c := 3; c <= 7; c++ {
		if tb.Cell(0, c) != "0" {
			t.Fatalf("shipped build violated an invariant:\n%s", tb)
		}
	}
	if tb.Cell(1, 3) == "0" {
		t.Fatalf("no-fencing build produced no double commit in 25 seeds:\n%s", tb)
	}
	if tb.Cell(1, 8) == "" {
		t.Fatalf("no first-bad-seed recorded for the broken build:\n%s", tb)
	}
}

// TestE15ParallelCaptureScales: the acceptance shape of E15 — 4 shard
// workers at least double the 1-worker capture throughput, and the
// pipelined cluster run completes with a real publish-latency
// distribution and a replayable recovery chain behind it.
func TestE15ParallelCaptureScales(t *testing.T) {
	got := map[string]Record{}
	for _, r := range quickRecords() {
		if r.Exp == "E15" {
			got[r.Case+" "+r.Metric] = r
		}
	}
	for _, w := range []string{"1", "2", "4", "8"} {
		if _, ok := got["workers="+w+" throughput_mb_s"]; !ok {
			t.Fatalf("no capture point for %s worker(s)", w)
		}
	}
	w1, w4 := got["workers=1 throughput_mb_s"].Value, got["workers=4 throughput_mb_s"].Value
	if w1 <= 0 {
		t.Fatalf("1-worker throughput %.1f MB/s", w1)
	}
	if w4 < 2*w1 {
		t.Fatalf("4-worker throughput %.1f MB/s < 2x 1-worker %.1f MB/s", w4, w1)
	}
	if got["pipelined completed"].Value != 1 {
		t.Fatal("pipelined cluster run did not complete")
	}
	p50, pmax := got["pipelined publish_ms.p50"], got["pipelined publish_ms.max"]
	if p50.N == 0 || p50.Value <= 0 || pmax.Value < p50.Value {
		t.Fatalf("degenerate publish-latency records: %v, %v", p50, pmax)
	}
	if got["pipelined chain_len"].Value < 1 || got["pipelined restore_read_ms"].Value <= 0 {
		t.Fatalf("degenerate restore records: %v, %v",
			got["pipelined chain_len"], got["pipelined restore_read_ms"])
	}
}
