package experiments

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// E15 measures parallel capture: the same stopped dense process
// captured with 1, 2, 4, and 8 shard workers. The image bytes are
// identical by construction (the parallel encoder is byte-stable; see
// checkpoint.EncodeParallel), so worker count can only move the
// simulated read+encode time. Workers are a fixed request parameter,
// never the host's core count, so runs are machine-independent. A
// pipelined cluster run then reports the publish-latency distribution
// and the end-of-run recovery chain read.
func E15(quick bool) []Record {
	mib := 16
	if quick {
		mib = 8
	}
	rec := &recorder{exp: "E15"}
	var base simtime.Duration
	for _, w := range []int{1, 2, 4, 8} {
		dur, payload, err := e15Capture(mib, w)
		if !rec.check(err) {
			continue
		}
		if w == 1 {
			base = dur
		}
		cs := fmt.Sprintf("workers=%d", w)
		rec.ms(cs, "capture_ms", dur.Millis())
		rec.ratio(cs, "throughput_mb_s", "MB/s", float64(payload)/1e6, dur.Seconds())
		rec.ratio(cs, "speedup", "x", float64(base), float64(dur))
	}
	e15Pipelined(rec, quick)
	return rec.done()
}

// e15Capture stops a dense process and captures it once with the given
// worker count, returning the simulated capture duration and payload.
func e15Capture(mib, workers int) (simtime.Duration, int, error) {
	prog := workload.Dense{MiB: mib}
	k := newMachine("e15", prog)
	p, err := k.Spawn(prog.Name())
	if err != nil {
		return 0, 0, err
	}
	workload.SetIterations(p, 1<<30)
	runTo(k, p, 1) // materialize the working set
	k.Stop(p)
	t0 := k.Now()
	_, st, err := checkpoint.Capture(checkpoint.Request{
		Acc:       &checkpoint.KernelAccessor{K: k, P: p},
		Mechanism: "e15", Hostname: "e15", Seq: 1, Now: t0, Parallelism: workers,
	})
	if err != nil {
		return 0, 0, err
	}
	return k.Now().Sub(t0), st.PayloadBytes, nil
}

// e15Pipelined drives one autonomic job — real transient failures,
// delta chains — through the pipelined shipping path and records its
// publish-latency distribution and final recovery chain.
func e15Pipelined(rec *recorder, quick bool) {
	// Long enough that many delta publishes complete behind the ~25ms
	// full-image transfers; rebases kept sparse for the same reason.
	c, sup := newJob(15, 0.1, clusterIters(quick), cluster.SupervisorConfig{
		Policy:      policy.Fixed(simtime.Millisecond),
		Incremental: true,
		RebaseEvery: 16,
		Pipeline:    &cluster.PipelineConfig{MaxInFlight: 4},
	})
	c.SetInjector(cluster.NewInjector(cluster.Exponential{Mean: 100 * simtime.Millisecond},
		3*simtime.Millisecond, 33, 3))
	err := sup.Run(10 * simtime.Second)

	const cs = "pipelined"
	rec.flag(cs, "completed", err == nil && sup.Completed)
	snap := sup.Metrics.Hist("pipe.publish_latency").Snapshot()
	// The histogram holds nanoseconds.
	snap.P50, snap.P99, snap.Max, snap.Mean = snap.P50/1e6, snap.P99/1e6, snap.Max/1e6, snap.Mean/1e6
	rec.dist(cs, "publish_ms", "ms", snap)
	rec.add(cs, "publish_ms.mean", "ms", snap.N, snap.Mean)
	rec.count(cs, "publishes", int64(snap.N))
	rec.count(cs, "shipped", c.Counters.Get("pipe.shipped"))
	rec.count(cs, "batched", c.Counters.Get("pipe.batched"))
	rec.count(cs, "stalls", c.Counters.Get("pipe.stalls"))
	n, ms, err := finalChain(c, sup)
	if rec.check(err) {
		rec.count(cs, "chain_len", int64(n))
		rec.ms(cs, "restore_read_ms", ms)
	}
}
