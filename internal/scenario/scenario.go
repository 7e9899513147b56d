// Package scenario is the declarative performance-scenario catalog for
// the fleet-scale control plane: a named scenario pins a topology
// (nodes, shards, jobs), a fault schedule and a duration on the
// simulated clock. Run executes one and returns its fleet statistics,
// the chaos package's fleet-audit invariant violations, and its
// wall-clock orchestration throughput. A scenario carries no verdict:
// internal/experiments records each run, and the scenario rows of its
// Gates table hold each scenario's bounds. `make scenarios` runs the
// whole catalog against them, and E18 compares the 1k/10k pair.
//
// This package sits in the measurement harness layer, outside the
// simulation: events/sec is wall-clock throughput of the real
// orchestration code, which is exactly why it is measured here and
// nowhere inside internal/cluster (which stays wall-clock free and
// deterministic).
package scenario

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/simtime"
)

// Fault is one scheduled ground-truth node failure.
type Fault struct {
	At     simtime.Duration `json:"at"`
	Node   int              `json:"node"`
	Perm   bool             `json:"perm"`
	Repair simtime.Duration `json:"repair,omitempty"`
}

// Scenario is one named, self-contained run.
type Scenario struct {
	Name     string              `json:"name"`
	Config   cluster.FleetConfig `json:"-"`
	Faults   []Fault             `json:"faults,omitempty"`
	Duration simtime.Duration    `json:"duration"`
}

// Result is what one scenario run measured.
type Result struct {
	Name         string            `json:"name"`
	Violations   []chaos.Violation `json:"violations,omitempty"`
	EventsPerSec float64           `json:"events_per_sec"`
	WallMillis   float64           `json:"wall_ms"`
	// LazyRestores counts restores through the restart-before-read path
	// (fleet.lazy_restores).
	LazyRestores int64              `json:"lazy_restores"`
	Stats        cluster.FleetStats `json:"stats"`
}

func (r Result) String() string {
	return fmt.Sprintf("%-24s %d violations, %.0f events/s, detect p99 %.2f ms, failover p99 %.2f ms (%.0f ms wall)",
		r.Name, len(r.Violations), r.EventsPerSec, r.Stats.DetectP99, r.Stats.FailoverP99, r.WallMillis)
}

// Run executes one scenario and audits its invariants. It fails only
// on an invalid config or fault schedule.
func Run(sc Scenario) (Result, error) {
	res := Result{Name: sc.Name}
	r, err := cluster.NewRootSupervisor(sc.Config)
	if err != nil {
		return res, fmt.Errorf("scenario %s: config: %w", sc.Name, err)
	}
	for _, f := range sc.Faults {
		if err := r.FailAt(f.At, f.Node, f.Perm, f.Repair); err != nil {
			return res, fmt.Errorf("scenario %s: fault schedule: %w", sc.Name, err)
		}
	}

	start := time.Now()
	res.Stats = r.Run(sc.Duration)
	wall := time.Since(start)
	res.WallMillis = float64(wall.Microseconds()) / 1000
	if wall > 0 {
		res.EventsPerSec = float64(res.Stats.Events) / wall.Seconds()
	}
	res.LazyRestores = r.Counters().Get("fleet.lazy_restores")
	res.Violations = chaos.FleetViolations(&chaos.FleetAudit{
		Events:     r.Events,
		Counters:   r.Counters(),
		ReadObject: r.ReadObject,
	})
	return res, nil
}
