package experiments

import (
	"fmt"
	"slices"

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
		detect[i] = recordScenario(rec, sc)
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

// ScenarioRecords runs one catalog scenario and records it under its
// name as exp "scenario"; the "scenario" rows of Gates hold each
// scenario's bounds.
func ScenarioRecords(sc scenario.Scenario) []Record {
	rec := &recorder{exp: "scenario"}
	recordScenario(rec, sc)
	return rec.done()
}

// recordScenario runs sc and records its fleet statistics, latency
// tails, invariant violations (the total, the number of distinct
// invariants that fired, and one count per fired invariant) and host
// throughput under its name. It returns the detection-latency
// distribution; an invalid scenario is an error.
func recordScenario(rec *recorder, sc scenario.Scenario) trace.HistSnapshot {
	res, err := scenario.Run(sc)
	if !rec.check(err) {
		return trace.HistSnapshot{}
	}
	cs, st := sc.Name, res.Stats
	rec.count(cs, "shards", int64(sc.Config.Shards))
	rec.count(cs, "timers", int64(st.Timers))
	rec.count(cs, "detections", int64(st.Detections))
	rec.count(cs, "checkpoints", st.Checkpoints)
	rec.count(cs, "migrations", st.Migrations)
	rec.count(cs, "lazy_restores", res.LazyRestores)
	// FleetStats keeps the p50 and p99 of each histogram; below
	// minTailN samples the p99's nearest-rank index is the last, so it
	// is the exact maximum.
	detect := trace.HistSnapshot{N: st.Detections, P50: st.DetectP50, P99: st.DetectP99, Max: st.DetectP99}
	rec.dist(cs, "detect_ms", "ms", detect)
	rec.dist(cs, "failover_ms", "ms", trace.HistSnapshot{N: st.FailoverN, P50: st.FailoverP50, P99: st.FailoverP99, Max: st.FailoverP99})
	byInv := map[string]int64{}
	var invs []string
	for _, v := range res.Violations {
		if byInv[v.Invariant] == 0 {
			invs = append(invs, v.Invariant)
		}
		byInv[v.Invariant]++
	}
	slices.Sort(invs)
	rec.count(cs, "violations", int64(len(res.Violations)))
	rec.count(cs, "violation_kinds", int64(len(invs)))
	for _, inv := range invs {
		rec.count(cs, "violations."+inv, byInv[inv])
	}
	rec.recs = append(rec.recs,
		Record{Exp: rec.exp, Case: cs, Metric: "events_per_s", Unit: "1/s", Clock: "host", N: 1, Value: res.EventsPerSec},
		Record{Exp: rec.exp, Case: cs, Metric: "wall_ms", Unit: "ms", Clock: "host", N: 1, Value: res.WallMillis})
	return detect
}
