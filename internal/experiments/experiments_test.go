package experiments

import (
	"testing"

	"repro/internal/cluster"
)

// Each claim test runs one experiment at quick size and fails on every
// violation of its rows of Gates, where each claim is written down.

func TestE1UserCostsMoreThanSystem(t *testing.T) { gate(t, E1) }

func TestE2DeltaDependsOnApplication(t *testing.T) { gate(t, E2) }

func TestE3FinerBlocksSmallerDeltas(t *testing.T) { gate(t, E3) }

func TestE4FIFOInsensitiveSignalDeferred(t *testing.T) { gate(t, E4) }

func TestE5RemoteBeatsLocalBeatsNone(t *testing.T) { gate(t, E5) }

func TestE6YoungNearOptimal(t *testing.T) { gate(t, E6) }

func TestE7LineBeatsPageForSparse(t *testing.T) { gate(t, E7) }

func TestE8DrainScales(t *testing.T) { gate(t, E8) }

func TestE9MatrixShape(t *testing.T) {
	tb := E9Matrix()
	pinText(t, "testdata/e9.golden", tb.String())
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

func TestE10Runs(t *testing.T) { gate(t, E10) }

func TestE11StorageFaultsContrast(t *testing.T) { gate(t, E11) }

func TestE12PhiUnderLossIsSafeAndFalsePositiveRecoveryCompletes(t *testing.T) { gate(t, E12) }

// TestE12DeterministicReplay runs the E12 autonomic scenario twice with
// the same seed and demands byte-identical counter snapshots and
// orchestration event logs: the simulation's determinism is what makes
// every other experiment (and the chaos harness's seed replay)
// trustworthy.
func TestE12DeterministicReplay(t *testing.T) {
	type snap struct{ counters, events string }
	run := func() snap {
		r := e12Run("phi-8", 0.05, false)
		return snap{r.c.Counters.String(), cluster.FormatEvents(r.sup.Events)}
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

// TestE13ChaosSweepContrast: the shipped build survives a seed block
// with zero violations of every invariant; the fencing-disabled build is
// caught by the double-commit checker within the same block.
func TestE13ChaosSweepContrast(t *testing.T) { gate(t, E13) }

// TestE15ParallelCaptureScales: 4 shard workers at least double the
// 1-worker capture throughput, and the pipelined cluster run completes
// with a real publish-latency distribution and a replayable recovery
// chain behind it — E15's rows of Gates.
func TestE15ParallelCaptureScales(t *testing.T) { gate(t, E15) }

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
