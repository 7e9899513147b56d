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

// blockTrackerGolden is the SHA-256 of the sub-page block trackers'
// collections, block sizes, bill ledgers, kernel ledgers and stats over
// the fixed run below. A change here is a simulated-behaviour change: the
// hashing charges and the changed blocks feed E3.
const blockTrackerGolden = "736cdfb21a2279a2f61258e943767c82e8aa5d7f1c3a0f3dadcaf5ffc9bd6ee3"

// TestBlockTrackerGolden runs the block-hash trackers (pure hash at two
// block sizes, the write-protect hybrid at two, and the adaptive one)
// over one step-driven Sparse job for eight epochs. Each epoch also
// stores into part of one arena page, across a block boundary, so the
// trackers see sub-page changes as well as the job's own writes. Every
// collection's ranges, the block size in force after it, the tracker's
// bill ledger and the kernel ledger are hashed, then the final
// TrackerStats.
func TestBlockTrackerGolden(t *testing.T) {
	h := sha256.New()
	for _, kind := range []string{"hash-256", "hash-1024", "hybrid-256", "hybrid-512", "adaptive"} {
		d := newStepDriver(t, "src", workload.Sparse{MiB: 1, WriteFrac: 0.3, Seed: 27}, 1<<30)
		d.stepIters(1)
		acc := &KernelAccessor{K: d.k, P: d.p}
		bill := costmodel.NewLedger()
		mk := map[string]func() (Tracker, error){
			"hash-256":   func() (Tracker, error) { return NewHashTracker(acc, bill, d.k.CM, 256, 16) },
			"hash-1024":  func() (Tracker, error) { return NewHashTracker(acc, bill, d.k.CM, 1024, 64) },
			"hybrid-256": func() (Tracker, error) { return NewHybridTracker(d.k, d.p, bill, 256) },
			"hybrid-512": func() (Tracker, error) { return NewHybridTracker(d.k, d.p, bill, 512) },
			"adaptive":   func() (Tracker, error) { return NewAdaptiveTracker(acc, bill, d.k.CM, nil) },
		}[kind]
		trk, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		d.k.Ledger.Reset()
		if err := trk.Arm(); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "tracker %s\n", trk.Name())
		buf := make([]byte, 64)
		for epoch := 0; epoch < 8; epoch++ {
			if epoch > 0 {
				d.stepIters(1)
				off := mem.Addr(epoch*613) % (mem.PageSize - 64)
				page := workload.ArenaBase + mem.Addr(epoch*29%256)*mem.PageSize
				if err := d.p.AS.Write(page+off, buf); err != nil {
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
			fmt.Fprintf(h, "\ngranularity %d\n", trk.(interface{ Granularity() int }).Granularity())
			hashLedger(h, bill)
			hashLedger(h, d.k.Ledger)
		}
		st := trk.Stats()
		fmt.Fprintf(h, "stats %+v\n", st)
		trk.Close()
		t.Logf("%s: %+v, bill %v, kernel %v", kind, st, bill.ByCategory, d.k.Ledger.ByCategory)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != blockTrackerGolden {
		t.Fatalf("block tracker golden = %s, want %s", got, blockTrackerGolden)
	}
}
