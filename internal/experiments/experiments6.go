package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/simtime"
)

// E14 measures what delta-chain shipping buys the cluster path: the
// same autonomic job — identical seeds, failure schedule, and detector —
// run at several dirty rates, once shipping full images every interval
// and once shipping delta chains at two rebase cadences. The two costs
// that trade against each other are bytes shipped per checkpoint (deltas
// win, and win hardest at low dirty rates) and the storage read time a
// recovery pays to load the final chain (fulls win: their chain is one
// image long). The interval scales with the dirty rate (floor 1 ms) so
// each checkpoint covers comparable progress: Sparse's iteration cost
// scales with its writes, so a fixed wall-clock interval sees the same
// page flux at every WriteFrac and would hide the rate.
func E14(quick bool) []Record {
	dirty := []float64{0.02, 0.1, 0.4}
	iters := 500
	if quick {
		dirty = []float64{0.02, 0.4}
		iters = 250
	}
	rec := &recorder{exp: "E14"}
	for _, d := range dirty {
		for _, cfg := range []struct {
			name        string
			incremental bool
			rebase      int
		}{
			{"full", false, 0},
			{"rebase=4", true, 4},
			{"rebase=16", true, 16},
		} {
			r := e14Run(d, cfg.incremental, cfg.rebase, iters)
			cs := fmt.Sprintf("dirty=%g %s", d, cfg.name)
			rec.check(r.err)
			rec.flag(cs, "completed", r.completed)
			rec.count(cs, "ckpts", int64(r.ckpts))
			rec.count(cs, "restarts", int64(r.restarts))
			rec.add(cs, "shipped_bytes", "B", 1, r.bytesShipped)
			rec.add(cs, "bytes_per_ckpt", "B", r.ckpts, r.bytesPerCkpt())
			rec.count(cs, "delta_acks", r.deltaAcks)
			rec.count(cs, "full_acks", r.fullAcks)
			rec.count(cs, "retired", r.retired)
			rec.count(cs, "chain_len", int64(r.chainLen))
			rec.ms(cs, "restore_read_ms", r.restoreMs)
		}
	}
	return rec.done()
}

// e14Result is one E14 cell: the counters and recovery-chain costs of a
// single supervised run.
type e14Result struct {
	completed    bool
	ckpts        int
	restarts     int
	bytesShipped float64
	deltaAcks    int64
	fullAcks     int64
	retired      int64
	chainLen     int
	restoreMs    float64
	err          error // reading the final recovery chain back failed
}

func (r e14Result) bytesPerCkpt() float64 {
	if r.ckpts == 0 {
		return 0
	}
	return r.bytesShipped / float64(r.ckpts)
}

// e14Run drives one autonomic job with real transient failures and
// measures the shipping and restore costs. The checkpoint interval
// scales with the dirty rate so every configuration checkpoints after a
// comparable amount of workload progress.
func e14Run(dirtyFrac float64, incremental bool, rebaseEvery, iters int) e14Result {
	interval := simtime.Duration(dirtyFrac * float64(25*simtime.Millisecond))
	if interval < simtime.Millisecond {
		interval = simtime.Millisecond
	}
	c, sup := newJob(14, dirtyFrac, iters, cluster.SupervisorConfig{
		Policy:      policy.Fixed(interval),
		Incremental: incremental,
		RebaseEvery: rebaseEvery,
	})
	c.SetInjector(cluster.NewInjector(cluster.Exponential{Mean: 100 * simtime.Millisecond},
		3*simtime.Millisecond, 33, 3))
	err := sup.Run(5 * simtime.Second)

	r := e14Result{
		completed:    err == nil && sup.Completed,
		ckpts:        sup.Checkpoints,
		restarts:     sup.Restarts,
		bytesShipped: float64(c.Counters.Get("ckpt.bytes_shipped")),
		deltaAcks:    c.Counters.Get("ckpt.delta_acks"),
		fullAcks:     c.Counters.Get("ckpt.full_acks"),
		retired:      c.Counters.Get("ckpt.retired"),
	}
	r.chainLen, r.restoreMs, r.err = finalChain(c, sup)
	return r
}
