package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/simos/kernel"
)

// stepGoldenSum is the SHA-256 of stepGoldenLines' output.
const stepGoldenSum = "c7d57b94a0b88f57b3835ffe3b5e479ea80d72f687efb8c75718a8765b17c244"

// stepGoldenSteps is how many Steps each program takes: enough for
// every row to wrap its 256-page sweep or its iteration many times.
const stepGoldenSteps = 300

// stepGoldenLines steps Dense and Sparse over a 256-page arena at every
// pages-per-step count in {1, 3, 4, 5, 64}, Sparse at 1, 3 and 25
// writes per iteration, so a step ends mid-batch on a sweep or
// iteration boundary as well as on a full one. Each line names the
// program and digests, after every Step, the iteration counter, the
// position register G[4], the checksum register G[3] and the simulated
// clock, then gives the final memory checksum.
func stepGoldenLines(t *testing.T) string {
	t.Helper()
	var progs []kernel.Program
	for _, n := range []int{1, 3, 4, 5, 64} {
		progs = append(progs, Dense{MiB: 1, PagesPerStep: n, Regions: n == 3})
		for _, writes := range []float64{1, 3, 25} {
			progs = append(progs, Sparse{MiB: 1, WriteFrac: writes / 256, Seed: 7, PagesPerStep: n, Regions: n == 5})
		}
	}
	var out string
	for _, prog := range progs {
		k := runKernel(t, prog)
		p, err := k.Spawn(prog.Name())
		if err != nil {
			t.Fatal(err)
		}
		ctx := &kernel.Context{K: k, P: p, T: p.MainThread()}
		h := sha256.New()
		for i := 0; i < stepGoldenSteps; i++ {
			if st, err := prog.Step(ctx); err != nil || st != kernel.StatusRunning {
				t.Fatalf("%s step %d: status %v, err %v", prog.Name(), i, st, err)
			}
			r := ctx.Regs()
			fmt.Fprintf(h, "%d %d %x %d\n", r.PC, r.G[4], r.G[3], k.Now())
		}
		out += fmt.Sprintf("%s pps=%d steps=%x mem=%016x\n", prog.Name(), pagesPerStepOf(prog), h.Sum(nil)[:8], p.AS.Checksum())
	}
	return out
}

func pagesPerStepOf(prog kernel.Program) int {
	switch w := prog.(type) {
	case Dense:
		return w.pagesPerStep()
	case Sparse:
		return w.pagesPerStep()
	}
	return 0
}

// TestStepGolden pins what Dense and Sparse write, charge and compute,
// step by step: a change to the page fill that is meant to be host-only
// must leave every register, clock and memory image unchanged.
func TestStepGolden(t *testing.T) {
	lines := stepGoldenLines(t)
	sum := sha256.Sum256([]byte(lines))
	if got := hex.EncodeToString(sum[:]); got != stepGoldenSum {
		t.Fatalf("step golden sha256 %s, want %s\n%s", got, stepGoldenSum, lines)
	}
}
