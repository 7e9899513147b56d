package cluster

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/simtime"
)

// FailureModel generates inter-failure times. Fail-stop semantics [33]
// are assumed throughout: a failure is always detected and takes the
// whole node down.
type FailureModel interface {
	// NextGap draws the time to the next failure.
	NextGap(rng *rand.Rand) simtime.Duration
	// MTBF returns the model's mean time between failures.
	MTBF() simtime.Duration
}

// Exponential is the memoryless failure model (constant hazard rate),
// the standard assumption behind Young's formula.
type Exponential struct {
	Mean simtime.Duration
}

// NextGap implements FailureModel.
func (e Exponential) NextGap(rng *rand.Rand) simtime.Duration {
	return simtime.Duration(rng.ExpFloat64() * float64(e.Mean))
}

// MTBF implements FailureModel.
func (e Exponential) MTBF() simtime.Duration { return e.Mean }

// Weibull models wear-out (Shape > 1) or infant mortality (Shape < 1);
// Shape = 1 degenerates to Exponential.
type Weibull struct {
	Scale simtime.Duration
	Shape float64
}

// NextGap implements FailureModel.
func (w Weibull) NextGap(rng *rand.Rand) simtime.Duration {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return simtime.Duration(float64(w.Scale) * math.Pow(-math.Log(u), 1/w.Shape))
}

// MTBF implements FailureModel.
func (w Weibull) MTBF() simtime.Duration {
	return simtime.Duration(float64(w.Scale) * math.Gamma(1+1/w.Shape))
}

// FailureKind distinguishes the two cases §4.1 separates for local
// storage: a transient failure (power outage / reboot — the local disk
// comes back with its data) and a permanent one (the node is replaced —
// local checkpoints are gone for good).
type FailureKind uint8

// Failure kinds.
const (
	Transient FailureKind = iota
	Permanent
)

// Injector schedules fail-stop failures on a detailed cluster.
type Injector struct {
	Model      FailureModel
	RepairTime simtime.Duration
	// PermanentFrac is the fraction of failures that are permanent.
	PermanentFrac float64
	// OnFail is invoked after a node goes down.
	OnFail func(c *Cluster, node int, kind FailureKind)

	rng     *rand.Rand
	pending []injEvent
}

type injEvent struct {
	at     simtime.Time
	node   int
	reboot bool
	kind   FailureKind
}

// NewInjector builds an injector and pre-schedules the first failure for
// each node of an n-node cluster.
func NewInjector(model FailureModel, repair simtime.Duration, seed int64, nodes int) *Injector {
	inj := &Injector{Model: model, RepairTime: repair, rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < nodes; i++ {
		inj.scheduleNext(i, 0)
	}
	return inj
}

func (inj *Injector) scheduleNext(node int, now simtime.Time) {
	inj.pending = append(inj.pending, injEvent{
		at:   now.Add(inj.Model.NextGap(inj.rng)),
		node: node,
	})
	sort.Slice(inj.pending, func(i, j int) bool { return inj.pending[i].at < inj.pending[j].at })
}

// apply fires all events due at the cluster barrier.
func (inj *Injector) apply(c *Cluster) {
	for len(inj.pending) > 0 && inj.pending[0].at <= c.now {
		ev := inj.pending[0]
		inj.pending = inj.pending[1:]
		if ev.reboot {
			c.Reboot(ev.node)
			inj.scheduleNext(ev.node, c.now)
			continue
		}
		if !c.nodes[ev.node].alive {
			continue
		}
		// The kind is drawn at fire time so a PermanentFrac set after
		// construction governs every failure, including the pre-scheduled
		// first one per node.
		ev.kind = Transient
		if inj.rng.Float64() < inj.PermanentFrac {
			ev.kind = Permanent
		}
		c.FailKind(ev.node, ev.kind)
		if ev.kind == Transient {
			inj.pending = append(inj.pending, injEvent{at: c.now.Add(inj.RepairTime), node: ev.node, reboot: true})
			sort.Slice(inj.pending, func(i, j int) bool { return inj.pending[i].at < inj.pending[j].at })
		}
		if inj.OnFail != nil {
			inj.OnFail(c, ev.node, ev.kind)
		}
	}
}
