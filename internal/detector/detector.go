// Package detector implements message-based failure detection — the
// piece the paper's "direction forward" (§5, autonomic C/R) needs that a
// fail-stop oracle hides. Every node emits periodic heartbeats over the
// (lossy, delayable, partitionable) cluster network to an observer node;
// a Detector turns the arrival stream into per-node suspicion. Two
// detectors are provided: a fixed timeout, and the phi-accrual detector
// of Hayashibara et al., which adapts its tolerance to the observed
// inter-arrival distribution. Suspicion can be wrong in both directions,
// and the Monitor counts exactly how wrong: detection latency for real
// failures, false positives for slow-but-alive nodes.
package detector

import (
	"math"

	"repro/internal/simtime"
)

// Heartbeat is the on-wire payload: "node Node was alive at SentAt".
type Heartbeat struct {
	Node   int
	Seq    uint64
	SentAt simtime.Time
}

// Detector turns heartbeat arrivals into per-node suspicion.
type Detector interface {
	// Name labels the detector in experiment tables.
	Name() string
	// Prime establishes t as the moment observation of node began (the
	// baseline before the first heartbeat arrives).
	Prime(node int, t simtime.Time)
	// Observe records a heartbeat arrival from node at time t.
	Observe(node int, t simtime.Time)
	// Suspected reports whether node is suspected dead as of now.
	Suspected(node int, now simtime.Time) bool
}

// --- Fixed-timeout detector ---

// Timeout suspects a node once no heartbeat has arrived for After. It is
// the classic fixed-bound detector: cheap and predictable, but its
// single knob trades detection latency directly against false positives
// under loss and jitter.
type Timeout struct {
	After simtime.Duration
	last  table[simtime.Time]
}

// NewTimeout returns a fixed-timeout detector.
func NewTimeout(after simtime.Duration) *Timeout {
	return &Timeout{After: after}
}

// Name implements Detector.
func (d *Timeout) Name() string { return "timeout" }

// Prime implements Detector.
func (d *Timeout) Prime(node int, t simtime.Time) {
	if e := d.last.at(node); !e.ok {
		e.v, e.ok = t, true
	}
}

// Observe implements Detector.
func (d *Timeout) Observe(node int, t simtime.Time) {
	e := d.last.find(node)
	if e == nil {
		if t <= 0 {
			return // an absent node reads as time 0: nothing to record
		}
		e = d.last.at(node)
	}
	if t > e.v {
		e.v, e.ok = t, true
	}
}

// Suspected implements Detector.
func (d *Timeout) Suspected(node int, now simtime.Time) bool {
	last, _ := d.last.get(node)
	return now.Sub(last) > d.After
}

// --- Phi-accrual detector ---

// phiState is the per-node arrival history of the phi-accrual detector.
type phiState struct {
	last      simtime.Time
	intervals []simtime.Duration // ring buffer of inter-arrival times
	next      int
	n         int
}

// PhiAccrual is the adaptive accrual detector: instead of a binary
// timeout it maintains a suspicion level
//
//	phi(t) = -log10( P(heartbeat still arrives after silence t) )
//
// with the inter-arrival distribution estimated as a normal over a
// sliding window. phi ≈ 1 means "90% sure", phi ≈ 8 "1 - 10^-8 sure".
// Jitter and loss widen the observed distribution, so the detector
// automatically becomes more patient on a bad network — the property a
// fixed timeout lacks.
type PhiAccrual struct {
	// Threshold is the phi level at which a node becomes suspected.
	Threshold float64
	// Window is how many inter-arrival samples are kept (default 64).
	Window int
	// MinStddev floors the estimated deviation so a perfectly regular
	// heartbeat stream does not make the detector infinitely confident
	// (one lost heartbeat would then look like certain death).
	MinStddev simtime.Duration

	nodes table[phiState]
}

// NewPhiAccrual returns a phi-accrual detector. minStddev should be on
// the order of half the heartbeat period.
func NewPhiAccrual(threshold float64, window int, minStddev simtime.Duration) *PhiAccrual {
	if window <= 0 {
		window = 64
	}
	return &PhiAccrual{Threshold: threshold, Window: window, MinStddev: minStddev}
}

// Name implements Detector.
func (d *PhiAccrual) Name() string { return "phi-accrual" }

// state returns node's arrival history, creating it on first use. The
// pointer is valid until the next call that adds a node.
func (d *PhiAccrual) state(node int) *phiState {
	e := d.nodes.at(node)
	if !e.ok {
		e.v, e.ok = phiState{intervals: make([]simtime.Duration, d.Window)}, true
	}
	return &e.v
}

// Prime implements Detector.
func (d *PhiAccrual) Prime(node int, t simtime.Time) {
	st := d.state(node)
	if st.last == 0 && st.n == 0 {
		st.last = t
	}
}

// Observe implements Detector.
func (d *PhiAccrual) Observe(node int, t simtime.Time) {
	st := d.state(node)
	if t <= st.last {
		return // duplicate or reordered heartbeat: no new information
	}
	st.intervals[st.next] = t.Sub(st.last)
	st.next = (st.next + 1) % d.Window
	if st.n < d.Window {
		st.n++
	}
	st.last = t
}

// Phi returns the current suspicion level for node (0 when the window is
// still warming up).
func (d *PhiAccrual) Phi(node int, now simtime.Time) float64 {
	e := d.nodes.find(node)
	if e == nil {
		return 0 // never heard of: no history
	}
	return e.v.phi(now, d.MinStddev)
}

// phi is the suspicion level of one node's history at now.
func (st *phiState) phi(now simtime.Time, minStddev simtime.Duration) float64 {
	if st.n < 3 {
		return 0 // not enough history to accrue suspicion
	}
	var sum, sq float64
	for i := 0; i < st.n; i++ {
		v := float64(st.intervals[i])
		sum += v
		sq += v * v
	}
	mean := sum / float64(st.n)
	variance := sq/float64(st.n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	std := math.Sqrt(variance)
	if floor := float64(minStddev); std < floor {
		std = floor
	}
	if std == 0 {
		std = 1
	}
	t := float64(now.Sub(st.last))
	x := (t - mean) / std
	// P(later heartbeat) = Q(x) = erfc(x/√2)/2; phi = -log10 Q.
	q := 0.5 * math.Erfc(x/math.Sqrt2)
	if q < 1e-300 {
		q = 1e-300 // clamp: beyond ~phi 300 the verdict is unambiguous
	}
	return -math.Log10(q)
}

// Suspected implements Detector.
func (d *PhiAccrual) Suspected(node int, now simtime.Time) bool {
	return d.Phi(node, now) >= d.Threshold
}
