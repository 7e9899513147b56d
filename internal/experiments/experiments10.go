package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// E18 measures the fleet-scale control plane at the two anchors of the
// scale pair — the fleet-1k and fleet-10k catalog scenarios, both run
// with identical tick, detector bound, and fault density — and records
// orchestration throughput, detection latency, and failover tails at
// each scale. The sharded digest architecture's claim is that detection
// latency does not grow with fleet size, gated as the 10k-node detect
// tail within 2x of the 1k-node tail; timers counts armed recurring
// timers, one digest tick per shard, not one per node. quick changes
// nothing: the pair is simulated-time work that completes in under a
// second of wall clock, so every run measures the real 10k-node
// scenario.
func E18(quick bool) []Record {
	_ = quick
	rec := &recorder{exp: "E18"}
	var detect [2]trace.HistSnapshot
	for i, name := range []string{"fleet-1k", "fleet-10k"} {
		sc, ok := scenario.Find(name)
		if !ok {
			rec.check(fmt.Errorf("e18: scenario %s missing from catalog", name))
			continue
		}
		res := scenario.Run(sc)
		st := res.Stats
		rec.flag(name, "pass", res.Pass)
		rec.count(name, "shards", int64(sc.Config.Shards))
		rec.count(name, "timers", int64(st.Timers))
		rec.count(name, "detections", int64(st.Detections))
		rec.count(name, "checkpoints", st.Checkpoints)
		rec.count(name, "migrations", st.Migrations)
		// FleetStats keeps the p50 and p99 of each histogram; below
		// minTailN samples the p99's nearest-rank index is the last, so
		// it is the exact maximum.
		detect[i] = trace.HistSnapshot{N: st.Detections, P50: st.DetectP50, P99: st.DetectP99, Max: st.DetectP99}
		rec.dist(name, "detect_ms", "ms", detect[i])
		// The failover sample count is not kept; it is at most one per
		// failover or migration event.
		nf := int(st.Failovers + st.Migrations)
		rec.dist(name, "failover_ms", "ms", trace.HistSnapshot{N: nf, P50: st.FailoverP50, P99: st.FailoverP99, Max: st.FailoverP99})
		rec.recs = append(rec.recs,
			Record{Exp: rec.exp, Case: name, Metric: "events_per_s", Unit: "1/s", Clock: "host", N: 1, Value: res.EventsPerSec},
			Record{Exp: rec.exp, Case: name, Metric: "wall_ms", Unit: "ms", Clock: "host", N: 1, Value: res.WallMillis})
	}
	l1, v1 := tail(detect[0])
	l10, v10 := tail(detect[1])
	if l1 != l10 {
		rec.check(fmt.Errorf("e18: detect tails %s and %s are not comparable", l1, l10))
	} else {
		rec.ratio("10k vs 1k", "detect_ms."+l10+"_ratio", "x", v10, v1)
	}
	return rec.done()
}
