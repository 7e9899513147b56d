// Policy-dimension invariants: the chaos harness exercises the
// Young/Daly cadence engine and the liveness content policy under the
// same fault soup as everything else, and this checker adds the one
// economic invariant a cadence policy owes its user — adapting the
// interval must not cost materially more lost work than not adapting.

package chaos

import (
	"fmt"

	"repro/internal/cluster"
)

// workLostFactor bounds youngdaly work lost relative to the fixed twin.
// 2x, not 1x: on a single short scenario the youngdaly cadence can lose
// one extra partial interval to an unluckily placed failure; what it
// must never do is collapse (stop checkpointing, lose the whole run).
const workLostFactor = 2.0

// workLostSlackMS absorbs quantization on nearly-failure-free seeds
// where both totals are a few scheduler ticks wide.
const workLostSlackMS = 2.0

// workLostChecker is the policy economics invariant: on a youngdaly
// seed, the total work lost to failures must stay within workLostFactor
// of a fixed-cadence twin run of the same spec and seed, which Finish
// reruns. On every other seed it does nothing.
type workLostChecker struct{}

func (*workLostChecker) Name() string { return "policy-work-lost" }

func (*workLostChecker) Event(cluster.Event) {}

func (*workLostChecker) Finish(a *Audit) []Violation {
	if a.Spec.Policy != "youngdaly" || a.Sup == nil {
		return nil
	}
	snap := a.Sup.Metrics.Hist("policy.work_lost").Snapshot()
	got := snap.Mean * float64(snap.N)

	twin := a.Spec.Clone()
	twin.Policy = "" // fixed cadence at the same base interval
	ref := RunChecked(twin, nil)
	want := ref.WorkLostTotalMS()

	if got > workLostFactor*want+workLostSlackMS {
		return []Violation{{
			Invariant: "policy-work-lost",
			Detail: fmt.Sprintf("youngdaly lost %.2fms of work vs fixed twin %.2fms (bound %.1fx+%.0fms)",
				got, want, workLostFactor, workLostSlackMS),
		}}
	}
	return nil
}
