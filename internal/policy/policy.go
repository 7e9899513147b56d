// Package policy decides *when* a job checkpoints and *what* a delta
// carries. The paper's §5 direction is that both should follow from
// measurement, not configuration: the optimal cadence is a function of
// the measured capture cost and the observed failure rate (Young's
// first-order optimum, Daly's refinement), and the optimal content is
// the live state only — pages that will be overwritten before they are
// ever read again are dead weight in a delta.
//
// The public surface is one validated Spec consumed by
// cluster.NewSupervisor, replacing the scattered Interval/Adaptive
// knobs: a strategy table in the style of the checkpoint/restart config
// surfaces surveyed in SNIPPETS.md #1 (strategy + per-strategy params),
// plus a content policy that turns on liveness-driven delta exclusion.
// The Engine in engine.go is the runtime half: it owns the online MTBF
// estimator, tracks measured capture cost, and recomputes the live
// cadence on observation events (never per pump tick).
package policy

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/simtime"
)

// Strategy selects how the checkpoint cadence is chosen.
type Strategy string

// The strategy table. "fixed" is the classic configured interval;
// "youngdaly" recomputes the Young optimum from measurements on
// observation events and feeds it to agents as a live cadence.
const (
	StrategyFixed     Strategy = "fixed"
	StrategyYoungDaly Strategy = "youngdaly"
)

// Content selects what a delta capture carries.
type Content string

// Content policies. The zero value ships every dirty page; ContentLive
// arms the liveness tracker and excludes dead pages (written again
// before ever being read) from deltas.
const (
	ContentAll  Content = "all"
	ContentLive Content = "live"
)

// Typed validation errors, so callers can errors.Is instead of matching
// message text.
var (
	ErrUnknownStrategy     = errors.New("policy: unknown strategy")
	ErrUnknownContent      = errors.New("policy: unknown content policy")
	ErrNonPositiveInterval = errors.New("policy: non-positive interval")
	ErrNegativeParam       = errors.New("policy: negative parameter")
)

// Spec is the unified checkpoint policy: one strategy plus its
// parameters, and a content policy for deltas. The zero value is not a
// valid supervisor policy (an interval or strategy must be set); use
// the constructors or fill the fields and let Validate judge it.
type Spec struct {
	// Strategy selects the cadence rule. Empty defaults to fixed.
	Strategy Strategy `json:"strategy,omitempty"`

	// Interval is the configured cadence for fixed, and the base
	// cadence for youngdaly: the rate used before any failure has been
	// observed, and the anchor of the clamp [Interval/16, Interval*16]
	// on the computed cadence, so a wild early estimate can neither
	// storm the storage tier nor stop checkpointing. A youngdaly spec
	// with no base (the analytic model's) is unclamped Young.
	Interval simtime.Duration `json:"interval,omitempty"`

	// PriorMTBF seeds the estimator before the first observed failure.
	// Default one simulated hour (the legacy supervisor prior).
	PriorMTBF simtime.Duration `json:"prior_mtbf,omitempty"`

	// CkptCost seeds the capture-cost estimate before the first
	// measured capture. Default 10ms.
	CkptCost simtime.Duration `json:"ckpt_cost,omitempty"`

	// Content selects delta content: everything dirty (default) or
	// live pages only (pages overwritten before being read for
	// checkpoint.DefaultDeadStreak consecutive epochs are excluded).
	Content Content `json:"content,omitempty"`
}

// clampSpan bounds the youngdaly cadence to within this factor of the
// base interval, either way.
const clampSpan = 16

// Fixed returns the classic configured-interval policy.
func Fixed(d simtime.Duration) Spec { return Spec{Strategy: StrategyFixed, Interval: d} }

// YoungDaly returns the measurement-driven policy: base cadence d until
// the first failure is observed, then the Young optimum recomputed from
// the measured capture cost and the online MTBF estimate.
func YoungDaly(base simtime.Duration) Spec {
	return Spec{Strategy: StrategyYoungDaly, Interval: base}
}

// Live returns a copy of the spec with liveness-driven delta content on.
func (s Spec) Live() Spec { s.Content = ContentLive; return s }

// Enabled reports whether the spec asks for any checkpointing at all.
// The analytic model treats a zero spec as "never checkpoint".
func (s Spec) Enabled() bool { return s.Strategy != "" || s.Interval > 0 }

// Liveness reports whether delta content is liveness-driven.
func (s Spec) Liveness() bool { return s.Content == ContentLive }

// Normalized returns the spec with every defaulted field filled in.
func (s Spec) Normalized() Spec {
	if s.Strategy == "" {
		s.Strategy = StrategyFixed
	}
	if s.PriorMTBF == 0 {
		s.PriorMTBF = simtime.Hour
	}
	if s.CkptCost == 0 {
		s.CkptCost = 10 * simtime.Millisecond
	}
	return s
}

// Validate judges the spec. It does not require Interval > 0 — the
// analytic model runs youngdaly specs with no base — but every field
// that is set must be coherent. NewEngine (and so cluster.NewSupervisor)
// additionally requires a positive base interval.
func (s Spec) Validate() error {
	switch s.Strategy {
	case "", StrategyFixed, StrategyYoungDaly:
	default:
		return fmt.Errorf("%w %q", ErrUnknownStrategy, s.Strategy)
	}
	switch s.Content {
	case "", ContentAll, ContentLive:
	default:
		return fmt.Errorf("%w %q", ErrUnknownContent, s.Content)
	}
	if s.Interval < 0 {
		return fmt.Errorf("%w %v", ErrNonPositiveInterval, s.Interval)
	}
	for _, p := range []struct {
		name string
		v    simtime.Duration
	}{
		{"PriorMTBF", s.PriorMTBF},
		{"CkptCost", s.CkptCost},
	} {
		if p.v < 0 {
			return fmt.Errorf("%w: %s %v", ErrNegativeParam, p.name, p.v)
		}
	}
	return nil
}

// IntervalFor computes the cadence the spec prescribes for a measured
// capture cost and MTBF estimate. Pure: no estimator state, so the
// analytic model and property tests can drive it directly.
func (s Spec) IntervalFor(measuredCost, mtbf simtime.Duration) simtime.Duration {
	n := s.Normalized()
	cost := measuredCost
	if cost <= 0 {
		cost = n.CkptCost
	}
	if n.Strategy == StrategyFixed {
		return n.Interval
	}
	return n.clamp(Young(cost, mtbf))
}

func (s Spec) clamp(iv simtime.Duration) simtime.Duration {
	if iv <= 0 {
		iv = s.Interval
	}
	if lo := s.Interval / clampSpan; lo > 0 && iv < lo {
		iv = lo
	}
	if hi := s.Interval * clampSpan; hi > 0 && iv > hi {
		iv = hi
	}
	return iv
}

// Young is Young's first-order optimum for the checkpoint interval:
// sqrt(2 · checkpointCost · MTBF).
func Young(ckptCost, mtbf simtime.Duration) simtime.Duration {
	if ckptCost <= 0 || mtbf <= 0 {
		return mtbf
	}
	return simtime.Duration(math.Sqrt(2 * float64(ckptCost) * float64(mtbf)))
}

// Daly is Daly's higher-order refinement, accurate when the checkpoint
// cost is not negligible next to the MTBF. The youngdaly strategy runs
// Young; Daly is E6's comparison point.
func Daly(ckptCost, mtbf simtime.Duration) simtime.Duration {
	if ckptCost <= 0 || mtbf <= 0 {
		return mtbf
	}
	d, m := float64(ckptCost), float64(mtbf)
	if d >= 2*m {
		return simtime.Duration(m)
	}
	x := math.Sqrt(d / (2 * m))
	return simtime.Duration(math.Sqrt(2*d*m)*(1+x/3+x*x/9) - d)
}

// MTBFEstimator is the online failure-rate tracker: the
// maximum-likelihood exponential estimate uptime/failures, with an
// optimistic prior before the first failure.
type MTBFEstimator struct {
	Prior    simtime.Duration
	failures int
	uptime   simtime.Duration
}

// NewMTBFEstimator returns an estimator with the given prior MTBF.
func NewMTBFEstimator(prior simtime.Duration) *MTBFEstimator {
	return &MTBFEstimator{Prior: prior}
}

// ObserveUptime accumulates failure-free running time.
func (e *MTBFEstimator) ObserveUptime(d simtime.Duration) { e.uptime += d }

// ObserveFailure records one failure.
func (e *MTBFEstimator) ObserveFailure() { e.failures++ }

// Estimate returns the current MTBF estimate.
func (e *MTBFEstimator) Estimate() simtime.Duration {
	if e.failures == 0 {
		return e.Prior
	}
	return e.uptime / simtime.Duration(e.failures)
}

// Failures returns the observed failure count.
func (e *MTBFEstimator) Failures() int { return e.failures }
