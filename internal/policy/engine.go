// The runtime half of the policy package: an Engine per job that owns
// the online MTBF estimator, tracks the measured capture cost, and
// keeps a live cadence for the agents to consult.
//
// The engine is event-driven, not tick-driven: the youngdaly strategy
// recomputes its interval only when an observation actually changes the
// inputs — a failure moved the MTBF estimate, or an acked capture moved
// the cost estimate. Each recompute observes the `policy.interval`
// histogram exactly once and bumps the `policy.recompute` counter, so a
// run's telemetry answers "how often did the policy move, and where to"
// without one sample per agent pump drowning the distribution (the same
// single-observation discipline restore.latency follows).

package policy

import (
	"fmt"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// Engine evaluates one job's checkpoint policy against live
// measurements. It is driven from a single supervisor loop and, like
// MTBFEstimator before it, is not synchronized.
type Engine struct {
	spec Spec // normalized at construction
	est  *MTBFEstimator
	m    *trace.Metrics

	// cost is the EWMA of measured capture durations; zero until the
	// first observation (IntervalFor then falls back to spec.CkptCost).
	cost simtime.Duration
	// cur is the current cadence: the fixed interval, or the youngdaly
	// cadence recomputed on observation events only.
	cur        simtime.Duration
	recomputes int
}

// NewEngine validates the spec and builds its engine, with a fresh MTBF
// estimator seeded with the spec's prior; a nil metrics bundle just
// skips telemetry. Unlike Spec.Validate, an engine demands a positive
// base interval — a supervisor cannot pace agents without one.
func NewEngine(spec Spec, m *trace.Metrics) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.Normalized()
	if n.Interval <= 0 {
		return nil, fmt.Errorf("%w: policy engine needs a base Interval, got %v",
			ErrNonPositiveInterval, spec.Interval)
	}
	return &Engine{spec: n, est: NewMTBFEstimator(n.PriorMTBF), m: m, cur: n.Interval}, nil
}

// Spec returns the normalized policy the engine runs.
func (e *Engine) Spec() Spec { return e.spec }

// Estimator exposes the engine's MTBF estimator, for callers that read
// Failures/Estimate.
func (e *Engine) Estimator() *MTBFEstimator { return e.est }

// Base returns the configured base interval: the fixed cadence, or the
// anchor the measurement-driven strategies start from and clamp around.
func (e *Engine) Base() simtime.Duration { return e.spec.Interval }

// CaptureCost returns the current capture-cost estimate: the EWMA of
// measured costs, or the spec's seed before any measurement.
func (e *Engine) CaptureCost() simtime.Duration {
	if e.cost > 0 {
		return e.cost
	}
	return e.spec.CkptCost
}

// Recomputes returns how many times the youngdaly cadence was
// recomputed — the expected observation count of `policy.interval`.
func (e *Engine) Recomputes() int { return e.recomputes }

// Interval returns the cadence the next checkpoint should follow: the
// configured interval for fixed, and for youngdaly the cadence the last
// observation event computed (the base interval until then).
func (e *Engine) Interval() simtime.Duration { return e.cur }

// ObserveUptime accumulates failure-free running time into the MTBF
// estimate. It never recomputes on its own: uptime only matters once a
// failure divides it.
func (e *Engine) ObserveUptime(d simtime.Duration) { e.est.ObserveUptime(d) }

// ObserveFailure records one failure and recomputes the live cadence.
func (e *Engine) ObserveFailure() {
	e.est.ObserveFailure()
	e.recompute()
}

// ObserveCaptureCost folds one measured capture duration into the cost
// estimate (EWMA, quarter-weight on the new sample) and recomputes the
// live cadence.
func (e *Engine) ObserveCaptureCost(d simtime.Duration) {
	if d <= 0 {
		return
	}
	if e.cost == 0 {
		e.cost = d
	} else {
		e.cost = (3*e.cost + d) / 4
	}
	e.recompute()
}

// recompute re-evaluates the youngdaly cadence from the current
// estimates. Until the first observed failure the cadence stays at the
// base interval: the prior is an assumption, and this strategy moves on
// measurements only. Exactly one policy.interval observation lands per
// recompute — never one per pump tick.
func (e *Engine) recompute() {
	if e.spec.Strategy != StrategyYoungDaly {
		return
	}
	iv := e.spec.Interval
	if e.est.Failures() > 0 {
		iv = e.spec.IntervalFor(e.cost, e.est.Estimate())
	}
	e.cur = iv
	e.recomputes++
	if e.m != nil {
		e.m.Hist("policy.interval").Observe(iv.Millis())
		e.m.Counters.Inc("policy.recompute", 1)
	}
}
