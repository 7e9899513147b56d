package cluster

import (
	"testing"

	"repro/internal/simtime"
)

// maxAllocsPerCkpt bounds the heap objects one checkpoint of a
// steady-state burst allocates. Four are its own: the object name, the
// payload, and the storage write path's staging name and writer. The
// burst's event buffer is sized once for the whole burst and each job's
// chain list is shifted in place, so neither regrows per checkpoint;
// when they did, a burst of 128 cost 4.57 objects per checkpoint.
const maxAllocsPerCkpt = 4.25

// One shard's checkpoint burst costs a fixed number of heap objects per
// checkpoint. Every shard's 128 jobs share one cadence slot, so each
// cadence cycle of 16 ticks holds one burst of 128 checkpoints, whose
// 256 events exceed one flush batch: the barrier's release rule drops
// the buffer after every burst, and the next burst must size it afresh.
func TestShardBurstTickAllocs(t *testing.T) {
	cfg := FleetConfig{Nodes: 2048, Shards: 16, Jobs: 2048, CkptEvery: 16, Seed: 1}
	r := MustNewRootSupervisor(cfg)
	sh := r.shards[0]
	var now simtime.Time
	cycle := func() {
		for k := 0; k < cfg.CkptEvery; k++ {
			now = now.Add(r.cfg.Tick)
			sh.runTick(now)
			sh.releaseBatch()
		}
	}
	// Warm up for 2×CkptEvery ticks: every chain is past gcKeep, so
	// each checkpoint also retires one.
	cycle()
	cycle()
	acks := sh.ctr.Get("fleet.ckpt_acks")
	const runs = 10
	allocs := testing.AllocsPerRun(runs, cycle)
	ckpts := float64(sh.ctr.Get("fleet.ckpt_acks")-acks) / (runs + 1)
	if ckpts != float64(len(sh.jobs)) {
		t.Fatalf("%.1f checkpoints per cycle, want one per job (%d)", ckpts, len(sh.jobs))
	}
	if per := allocs / ckpts; per > maxAllocsPerCkpt {
		t.Errorf("%.2f allocations per checkpoint (%.0f per burst of %.0f), want <= %.2f",
			per, allocs, ckpts, maxAllocsPerCkpt)
	}
}

// Run reserves the merged event log for the events its checkpoint
// cadence and fault schedule imply, so a golden run's log is reallocated
// at most once, by a run that emits more than that. Growing by append
// from empty took 16 or 17 reallocations per row.
func TestFleetEventLogReservedOnce(t *testing.T) {
	for _, row := range fleetGoldenRows {
		t.Run(row.name, func(t *testing.T) {
			r := fleetGoldenSupervisor(t, row.cfg)
			first, last, moves := -1, -1, 0
			r.OnBatch = func([]Event) {
				c := cap(r.Events)
				if first < 0 {
					first = c
				} else if c != last {
					moves++
				}
				last = c
			}
			r.Run(fleetGoldenSpan)
			if moves > 1 {
				t.Errorf("event log reallocated %d times after its first flush (cap %d → %d, %d events), want <= 1",
					moves, first, last, len(r.Events))
			}
		})
	}
}
