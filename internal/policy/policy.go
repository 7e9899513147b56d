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
// "youngdaly" recomputes the Young/Daly optimum from measurements on
// observation events and feeds it to agents as a live cadence.
const (
	StrategyFixed     Strategy = "fixed"
	StrategyYoungDaly Strategy = "youngdaly"
)

// Formula picks the interval optimum used by the youngdaly strategy.
type Formula string

// Formulas. The zero value means Young's √(2δM).
const (
	FormulaYoung Formula = "young"
	FormulaDaly  Formula = "daly"
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
	ErrUnknownFormula      = errors.New("policy: unknown formula")
	ErrUnknownContent      = errors.New("policy: unknown content policy")
	ErrNonPositiveInterval = errors.New("policy: non-positive interval")
	ErrNegativeParam       = errors.New("policy: negative parameter")
	ErrClampInverted       = errors.New("policy: min interval exceeds max")
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
	// observed, and the anchor for the default clamps. A youngdaly spec
	// with no base (the analytic model's) is unclamped Young/Daly.
	Interval simtime.Duration `json:"interval,omitempty"`

	// Formula picks Young or Daly for youngdaly. Default young.
	Formula Formula `json:"formula,omitempty"`

	// PriorMTBF seeds the estimator before the first observed failure.
	// Default one simulated hour (the legacy supervisor prior).
	PriorMTBF simtime.Duration `json:"prior_mtbf,omitempty"`

	// CkptCost seeds the capture-cost estimate before the first
	// measured capture. Default 10ms.
	CkptCost simtime.Duration `json:"ckpt_cost,omitempty"`

	// MinInterval/MaxInterval clamp the computed youngdaly cadence.
	// Defaults Interval/16 and Interval*16, so a wild early estimate
	// can neither storm the storage tier nor stop checkpointing.
	MinInterval simtime.Duration `json:"min_interval,omitempty"`
	MaxInterval simtime.Duration `json:"max_interval,omitempty"`

	// Content selects delta content: everything dirty (default) or
	// live pages only.
	Content Content `json:"content,omitempty"`

	// DeadStreak is how many consecutive epochs a page must be
	// overwritten-before-read before the liveness tracker excludes it
	// from deltas. Default 2, so a page that alternates roles (read one
	// epoch, overwritten the next — a stencil's two grids) never
	// qualifies.
	DeadStreak int `json:"dead_streak,omitempty"`
}

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
	if s.Formula == "" {
		s.Formula = FormulaYoung
	}
	if s.PriorMTBF == 0 {
		s.PriorMTBF = simtime.Hour
	}
	if s.CkptCost == 0 {
		s.CkptCost = 10 * simtime.Millisecond
	}
	if s.Strategy == StrategyYoungDaly && s.Interval > 0 {
		if s.MinInterval == 0 {
			s.MinInterval = s.Interval / 16
		}
		if s.MaxInterval == 0 {
			s.MaxInterval = s.Interval * 16
		}
	}
	if s.DeadStreak == 0 {
		s.DeadStreak = 2
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
	switch s.Formula {
	case "", FormulaYoung, FormulaDaly:
	default:
		return fmt.Errorf("%w %q", ErrUnknownFormula, s.Formula)
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
		{"MinInterval", s.MinInterval},
		{"MaxInterval", s.MaxInterval},
	} {
		if p.v < 0 {
			return fmt.Errorf("%w: %s %v", ErrNegativeParam, p.name, p.v)
		}
	}
	if s.DeadStreak < 0 {
		return fmt.Errorf("%w: DeadStreak %d", ErrNegativeParam, s.DeadStreak)
	}
	if s.MinInterval > 0 && s.MaxInterval > 0 && s.MinInterval > s.MaxInterval {
		return fmt.Errorf("%w: %v > %v", ErrClampInverted, s.MinInterval, s.MaxInterval)
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
	f := Young
	if n.Formula == FormulaDaly {
		f = Daly
	}
	return n.clamp(f(cost, mtbf))
}

func (s Spec) clamp(iv simtime.Duration) simtime.Duration {
	if iv <= 0 {
		iv = s.Interval
	}
	if s.MinInterval > 0 && iv < s.MinInterval {
		iv = s.MinInterval
	}
	if s.MaxInterval > 0 && iv > s.MaxInterval {
		iv = s.MaxInterval
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
// cost is not negligible next to the MTBF.
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
