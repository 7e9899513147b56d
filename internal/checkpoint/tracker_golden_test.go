package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/simos/mem"
	"repro/internal/workload"
)

// pageTrackerChargesGolden is the SHA-256 of every page tracker's
// collections, stats and kernel ledger over the fixed run below. A change
// here is a simulated-behaviour change: the trackers' faults, protection
// counts and charges feed every incremental experiment.
const pageTrackerChargesGolden = "381f85275db699202fa9df764a2b25001abc60c2d348f7d05ce81a6c57c16e3e"

// hashLedger writes the ledger's total and per-category sums. Counts are
// left out: they record how many charges summed to each category, not
// what was charged.
func hashLedger(h hash.Hash, l *costmodel.Ledger) {
	fmt.Fprintf(h, "total %d\n", l.Total)
	cats := make([]string, 0, len(l.ByCategory))
	for c := range l.ByCategory {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, c := range cats {
		fmt.Fprintf(h, "%s %d\n", c, l.ByCategory[c])
	}
}

// TestPageTrackerChargesGolden runs the four page trackers (kernel or
// user, write-protect or liveness) over one step-driven Sparse job for
// several epochs. Each epoch also reads a few arena pages and stores
// into part of one, so the liveness trackers see read faults, partial
// stores and a misprediction repair as well as whole-page overwrites.
// Every collection's ranges, the final TrackerStats and the kernel
// ledger before and after Close are hashed into one golden sum.
func TestPageTrackerChargesGolden(t *testing.T) {
	h := sha256.New()
	for _, kind := range []string{"kernel-wp", "user-wp", "kernel-live", "user-live"} {
		d := newStepDriver(t, "src", workload.Sparse{MiB: 1, WriteFrac: 0.3, Seed: 27}, 1<<30)
		d.stepIters(1)
		var trk Tracker
		switch kind {
		case "kernel-wp":
			trk = NewKernelWPTracker(d.k, d.p)
		case "user-wp":
			trk = NewUserWPTracker(d.ctx)
		case "kernel-live":
			trk = NewKernelLivenessTracker(d.k, d.p)
		case "user-live":
			trk = NewUserLivenessTracker(d.ctx)
		}
		d.k.Ledger.Reset()
		if err := trk.Arm(); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "tracker %s\n", trk.Name())
		buf := make([]byte, 64)
		for epoch := 0; epoch < 6; epoch++ {
			if epoch > 0 {
				d.stepIters(1)
				for i := 0; i < 4; i++ {
					page := workload.ArenaBase + mem.Addr((epoch*7+i*13)%256)*mem.PageSize
					if err := d.p.AS.Read(page, buf); err != nil {
						t.Fatal(err)
					}
				}
				if err := d.p.AS.Write(workload.ArenaBase+mem.Addr(epoch)*mem.PageSize+128, buf); err != nil {
					t.Fatal(err)
				}
			}
			rs, err := trk.Collect()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "epoch %d:", epoch)
			for _, r := range rs {
				fmt.Fprintf(h, " %x+%d", uint64(r.Addr), r.Length)
			}
			fmt.Fprintln(h)
		}
		st := trk.Stats()
		fmt.Fprintf(h, "stats %+v\n", st)
		hashLedger(h, d.k.Ledger)
		armed := d.k.Ledger.Total
		trk.Close()
		hashLedger(h, d.k.Ledger)
		t.Logf("%s: %+v, ledger %v (Close charged %v)", kind, st, d.k.Ledger.ByCategory, d.k.Ledger.Total-armed)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pageTrackerChargesGolden {
		t.Fatalf("page tracker golden = %s, want %s", got, pageTrackerChargesGolden)
	}
}
