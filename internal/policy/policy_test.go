package policy

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
	"repro/internal/trace"
)

func TestValidateTypedErrors(t *testing.T) {
	ms := simtime.Millisecond
	cases := []struct {
		name string
		spec Spec
		want error
	}{
		{"unknown strategy", Spec{Strategy: "often"}, ErrUnknownStrategy},
		{"retired adaptive strategy", Spec{Strategy: "adaptive"}, ErrUnknownStrategy},
		{"unknown content", Spec{Content: "most"}, ErrUnknownContent},
		{"negative interval", Spec{Interval: -ms}, ErrNonPositiveInterval},
		{"negative prior", Spec{PriorMTBF: -ms}, ErrNegativeParam},
		{"negative cost", Spec{CkptCost: -ms}, ErrNegativeParam},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate = %v, want errors.Is %v", tc.name, err, tc.want)
		}
	}
	for _, good := range []Spec{
		{},
		Fixed(ms),
		YoungDaly(ms),
		YoungDaly(ms).Live(),
		{Strategy: StrategyYoungDaly, CkptCost: 10 * ms}, // base-less, as the analytic model runs it
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", good, err)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	ms := simtime.Millisecond
	if s := Fixed(5 * ms); s.Strategy != StrategyFixed || s.Interval != 5*ms {
		t.Errorf("Fixed: %+v", s)
	}
	if s := YoungDaly(5 * ms); s.Strategy != StrategyYoungDaly || s.Interval != 5*ms {
		t.Errorf("YoungDaly: %+v", s)
	}
	if s := (Spec{}); s.Enabled() || s.Liveness() {
		t.Error("zero spec should be disabled, content-all")
	}
	if s := Fixed(ms).Live(); !s.Enabled() || !s.Liveness() {
		t.Error("Fixed().Live() should be enabled with liveness content")
	}
}

func TestNormalizedDefaults(t *testing.T) {
	n := YoungDaly(16 * simtime.Millisecond).Normalized()
	if n.PriorMTBF != simtime.Hour {
		t.Errorf("PriorMTBF = %v", n.PriorMTBF)
	}
	if n.CkptCost != 10*simtime.Millisecond {
		t.Errorf("CkptCost = %v", n.CkptCost)
	}
	if n.Strategy != StrategyYoungDaly || (Spec{Interval: simtime.Millisecond}).Normalized().Strategy != StrategyFixed {
		t.Errorf("Strategy defaulting wrong: %+v", n)
	}
	// Explicit values survive normalization.
	e := Spec{Strategy: StrategyYoungDaly, Interval: 16 * simtime.Millisecond,
		PriorMTBF: simtime.Minute, CkptCost: simtime.Millisecond}.Normalized()
	if e.PriorMTBF != simtime.Minute || e.CkptCost != simtime.Millisecond {
		t.Errorf("Normalized stomped explicit values: %+v", e)
	}
}

// TestYoungMatchesFormula pins Young against the closed form on random
// inputs; Daly must stay within Young's neighbourhood and never exceed
// the MTBF regime it refines.
func TestYoungMatchesFormula(t *testing.T) {
	f := func(costMS, mtbfMS uint16) bool {
		cost := simtime.Duration(costMS) * simtime.Millisecond
		mtbf := simtime.Duration(mtbfMS) * simtime.Millisecond
		y := Young(cost, mtbf)
		if cost <= 0 || mtbf <= 0 {
			return y == mtbf
		}
		want := math.Sqrt(2 * float64(cost) * float64(mtbf))
		return math.Abs(float64(y)-want) <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIntervalForProperties: fixed ignores measurements entirely;
// youngdaly always lands inside its clamp, and without a base interval
// it has no clamp: the raw Young optimum, however wild.
func TestIntervalForProperties(t *testing.T) {
	ms := simtime.Millisecond
	fixed := func(costMS, mtbfMS uint16) bool {
		return Fixed(9*ms).IntervalFor(simtime.Duration(costMS)*ms, simtime.Duration(mtbfMS)*ms) == 9*ms
	}
	if err := quick.Check(fixed, nil); err != nil {
		t.Errorf("fixed: %v", err)
	}
	yd := func(costMS, mtbfMS uint16) bool {
		iv := YoungDaly(16*ms).IntervalFor(simtime.Duration(costMS)*ms, simtime.Duration(mtbfMS)*ms)
		return iv >= ms && iv <= 256*ms
	}
	if err := quick.Check(yd, nil); err != nil {
		t.Errorf("youngdaly clamp: %v", err)
	}
	// The clamp is reached on both sides: [base/16, base*16].
	if lo := YoungDaly(16*ms).IntervalFor(simtime.Microsecond, ms); lo != ms {
		t.Errorf("tiny Young optimum clamped to %v, want 1ms", lo)
	}
	if hi := YoungDaly(16*ms).IntervalFor(simtime.Second, simtime.Hour); hi != 256*ms {
		t.Errorf("huge Young optimum clamped to %v, want 256ms", hi)
	}
	baseless := Spec{Strategy: StrategyYoungDaly}
	for _, mtbf := range []simtime.Duration{50 * ms, simtime.Hour} {
		if got := baseless.IntervalFor(ms, mtbf); got != Young(ms, mtbf) {
			t.Errorf("base-less youngdaly at MTBF %v = %v, want unclamped Young %v", mtbf, got, Young(ms, mtbf))
		}
	}
	// Daly refines below Young when the cost is non-negligible.
	if d, y := Daly(10*ms, 100*ms), Young(10*ms, 100*ms); d >= y {
		t.Errorf("Daly %v not below Young %v at cost/MTBF = 0.1", d, y)
	}
}

// TestMTBFEstimatorExact checks the maximum-likelihood estimate and the
// prior fallback exactly.
func TestMTBFEstimatorExact(t *testing.T) {
	e := NewMTBFEstimator(simtime.Hour)
	if e.Estimate() != simtime.Hour {
		t.Fatalf("prior = %v", e.Estimate())
	}
	e.ObserveUptime(30 * simtime.Second)
	if e.Estimate() != simtime.Hour {
		t.Fatal("uptime alone must not move the estimate off the prior")
	}
	e.ObserveFailure()
	if e.Estimate() != 30*simtime.Second {
		t.Fatalf("after 1 failure / 30s uptime: %v", e.Estimate())
	}
	e.ObserveUptime(90 * simtime.Second)
	e.ObserveFailure()
	if e.Estimate() != simtime.Minute {
		t.Fatalf("after 2 failures / 120s uptime: %v", e.Estimate())
	}
	if e.Failures() != 2 {
		t.Fatalf("Failures = %d", e.Failures())
	}
}

// TestMTBFEstimatorConvergence: feeding a constant inter-failure gap
// must converge the estimate to that gap, for any gap and any count.
func TestMTBFEstimatorConvergence(t *testing.T) {
	f := func(gapMS uint16, n uint8) bool {
		gap := simtime.Duration(gapMS%5000+1) * simtime.Millisecond
		rounds := int(n%50) + 1
		e := NewMTBFEstimator(simtime.Hour)
		for i := 0; i < rounds; i++ {
			e.ObserveUptime(gap)
			e.ObserveFailure()
		}
		return e.Estimate() == gap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEngineRequiresBaseInterval(t *testing.T) {
	if _, err := NewEngine(Spec{Strategy: StrategyYoungDaly}, nil); !errors.Is(err, ErrNonPositiveInterval) {
		t.Errorf("no base interval: %v", err)
	}
	if _, err := NewEngine(Spec{Strategy: "often", Interval: simtime.Millisecond}, nil); !errors.Is(err, ErrUnknownStrategy) {
		t.Errorf("bad strategy: %v", err)
	}
}

// TestEngineEventDriven is the single-observation audit at engine
// level: the youngdaly cadence moves only on observation events, and
// the policy.interval histogram gets exactly one sample per recompute
// no matter how many times Interval() is consulted between events.
func TestEngineEventDriven(t *testing.T) {
	ms := simtime.Millisecond
	m := trace.NewMetrics()
	eng, err := NewEngine(YoungDaly(16*ms), m)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-failure: cadence is the base, however often it is consulted.
	for i := 0; i < 1000; i++ {
		if eng.Interval() != 16*ms {
			t.Fatalf("pre-failure cadence %v, want base 16ms", eng.Interval())
		}
	}
	if eng.Recomputes() != 0 {
		t.Fatalf("consultation alone recomputed %d times", eng.Recomputes())
	}
	// A capture-cost observation recomputes, but with no failures the
	// cadence stays at the base (the prior is not a measurement).
	eng.ObserveCaptureCost(2 * ms)
	if eng.Recomputes() != 1 || eng.Interval() != 16*ms {
		t.Fatalf("after cost obs: recomputes=%d interval=%v", eng.Recomputes(), eng.Interval())
	}
	// A failure makes the estimate real and the cadence move.
	eng.ObserveUptime(50 * ms)
	eng.ObserveFailure()
	if eng.Recomputes() != 2 {
		t.Fatalf("recomputes = %d", eng.Recomputes())
	}
	want := YoungDaly(16*ms).Normalized().IntervalFor(2*ms, 50*ms)
	if eng.Interval() != want {
		t.Fatalf("post-failure cadence %v, want %v", eng.Interval(), want)
	}
	// Exactly one histogram observation per recompute.
	if n := m.Hist("policy.interval").N(); n != 2 {
		t.Fatalf("policy.interval observations = %d, want 2", n)
	}
	if c := m.Counters.Get("policy.recompute"); c != 2 {
		t.Fatalf("policy.recompute = %d, want 2", c)
	}
	// EWMA: quarter weight on the new sample.
	eng.ObserveCaptureCost(6 * ms)
	if eng.CaptureCost() != 3*ms {
		t.Fatalf("EWMA cost = %v, want 3ms", eng.CaptureCost())
	}
}
