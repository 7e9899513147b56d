package main

import (
	"flag"
	"path/filepath"
	"testing"

	"repro/internal/exampletest"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// pin drives one session and compares its stdout with
// testdata/<name>.golden: the checkpoint object names, modes, payload
// sizes and simulated times, and the fingerprints. `go test
// ./cmd/ckptctl -update` re-pins every golden after an intended change.
func pin(t *testing.T, name, mech, wl string, mib int, iters uint64, chain int) {
	t.Helper()
	exampletest.File(t, filepath.Join("testdata", name+".golden"), *update, func() {
		if err := drive(mech, wl, mib, iters, chain); err != nil {
			t.Error(err)
		}
	})
}

func TestDriveCRAKSparse(t *testing.T) { pin(t, "crak", "crak", "sparse", 4, 12, 1) }

// TICK chains the four checkpoints: one full image, then deltas.
func TestDriveTICKChain(t *testing.T) { pin(t, "tick-chain4", "tick", "sparse", 4, 12, 4) }

func TestDriveBLCRMultithreaded(t *testing.T) { pin(t, "blcr-mt", "blcr", "mt", 2, 3000, 1) }

func TestDriveLibCkpt(t *testing.T) { pin(t, "libckpt", "libckpt", "sparse", 4, 12, 1) }

func TestDriveEPCKPT(t *testing.T) { pin(t, "epckpt", "epckpt", "sparse", 4, 12, 1) }

func TestDriveRejectsUnknown(t *testing.T) {
	if err := drive("nope", "sparse", 4, 12, 1); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
	if err := drive("crak", "nope", 4, 12, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
