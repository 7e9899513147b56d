// Fleet-scale invariant auditing. The chaos Checker catalog is built
// around the full cluster simulation (*cluster.Supervisor, workload
// fingerprints); the fleet-scale scenario harness has the same core
// safety obligations but different evidence: an orchestration event
// log, merged counters, and a namespaced object-read path. This adapter
// re-states the transferable invariants — no double commit past a
// fence, acked checkpoints durable until retired, shard-local GC never
// crossing a namespace — over that evidence, so the scenario suite and
// the chaos suite agree on what "broken" means.

package chaos

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// FleetAudit is the end-of-run evidence of a fleet-scale run.
type FleetAudit struct {
	// Events is the root's merged orchestration log.
	Events []cluster.Event
	// Counters is the merged counter snapshot.
	Counters *trace.Counters
	// ReadObject resolves a shard-namespaced object name.
	ReadObject func(name string) ([]byte, error)
}

// FleetViolations audits a fleet run. An empty result is the pass
// criterion every scenario enforces.
func FleetViolations(a *FleetAudit) []Violation {
	var out []Violation

	// retired is the audit's only per-name state (at fleet scale it
	// holds hundreds of thousands of names): true for a retired name,
	// and for an acked one once its durability has been audited.
	var stale []cluster.Event
	retired := make(map[string]bool)
	for _, ev := range a.Events {
		switch ev.Kind {
		case cluster.EvStaleCommit:
			stale = append(stale, ev)
		case cluster.EvRetire:
			retired[ev.Object] = true
		}
	}

	// Same invariant as doubleCommitChecker: a superseded incarnation's
	// publish must never land.
	if n := a.Counters.Get("fence.double_commits"); len(stale) > 0 || n > 0 {
		first := ""
		if len(stale) > 0 {
			first = " first: " + stale[0].String()
		}
		out = append(out, Violation{Invariant: "double-commit", Detail: fmt.Sprintf(
			"%d stale-epoch publishes landed (fence.double_commits=%d)%s", len(stale), n, first)})
	}

	// A writer holding the CURRENT epoch must never be rejected: that
	// would mean an epoch advance raced its re-admission.
	if n := a.Counters.Get("fence.unexpected"); n > 0 {
		out = append(out, Violation{Invariant: "fence-epoch", Detail: fmt.Sprintf(
			"%d current-epoch writes rejected by the fence", n)})
	}

	// Shard-local GC reaching for another shard's namespace is an
	// isolation breach even though the prefix guard refused it.
	if n := a.Counters.Get("fence.gc_foreign"); n > 0 {
		out = append(out, Violation{Invariant: "shard-isolation", Detail: fmt.Sprintf(
			"shard GC attempted %d foreign-namespace delete(s)", n)})
	}

	// Acked-durability over the fleet's chains: every acknowledged
	// checkpoint not legally retired must still be readable. Acks are
	// audited in log order, each name once.
	for _, ev := range a.Events {
		if ev.Kind != cluster.EvAck || retired[ev.Object] {
			continue
		}
		name := ev.Object
		retired[name] = true
		data, err := a.ReadObject(name)
		if err != nil {
			out = append(out, Violation{Invariant: "acked-durability", Detail: fmt.Sprintf(
				"acked %s unreadable: %v", name, err)})
		} else if len(data) == 0 {
			out = append(out, Violation{Invariant: "acked-durability", Detail: fmt.Sprintf(
				"acked %s is empty", name)})
		}
	}
	return out
}
