package detector

import (
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Transport is the slice of the cluster the monitor needs: heartbeat
// carriage over the real (faulty) network plus step/lifecycle hooks.
// *cluster.Cluster implements it; keeping it an interface here avoids an
// import cycle and keeps the detector honest — it sees nodes only
// through messages and hooks, never through the process table.
type Transport interface {
	Now() simtime.Time
	NumNodes() int
	// NodeAlive gates node-local code (a dead machine emits nothing) and
	// feeds metrics ground truth; the suspicion verdict never reads it.
	NodeAlive(i int) bool
	Send(from, to int, payload any, size int) error
	OnStep(fn func())
	OnDeliver(i int, fn func(payload any))
	Handler(i int) func(payload any)
	OnNodeDown(fn func(node int))
}

// Event is one suspicion transition in the monitor's log.
type Event struct {
	Node int
	At   simtime.Time
	// Suspected true: the node crossed into suspicion; false: a
	// heartbeat rehabilitated it.
	Suspected bool
	// FalsePositive marks a suspicion of a node that was in fact alive
	// (ground truth, recorded for accounting only).
	FalsePositive bool
}

// Config tunes a Monitor.
type Config struct {
	// Period is the heartbeat emission period (default 500µs).
	Period simtime.Duration
	// Observer is the node the detector runs on; heartbeats of every
	// node are sent to it over the real network. The observer is the
	// control-plane machine, so PickHealthy never offers it as a spare.
	Observer int
}

// hbBytes is the heartbeat payload size for transfer-cost modeling,
// member to observer and member to aggregator alike.
const hbBytes = 64

// verdicts is the observer-side core both monitors embed: per-node
// suspicion driven by a Detector, honest accounting of every verdict
// against ground truth (detection latency for real failures, false
// positives for slow-but-alive nodes, false negatives for failures
// healed before ever being suspected, wasted restarts), the suspicion
// event log, and the failure-detector surface the supervisor consults.
// The monitors differ only in how heartbeats reach the observer.
type verdicts struct {
	T Transport
	D Detector
	// Counters receives det.* counters; Latency accumulates detection
	// latency (simulated milliseconds) for true failures.
	Counters *trace.Counters
	Latency  *trace.Series

	observer  int
	suspected []bool
	lastSent  []simtime.Time // latest SentAt over heartbeats heard
	lastDown  []simtime.Time // ground truth: most recent down event (metrics only)
	credited  []bool         // the outage at lastDown has been classified
	falseSus  []bool         // current suspicion was classified false
	events    []Event
}

// newVerdicts builds the core for every node of t; the owning monitor
// hooks noteDown on node-down. A nil ctr gets a fresh counter set.
func newVerdicts(t Transport, d Detector, observer int, ctr *trace.Counters) verdicts {
	if ctr == nil {
		ctr = trace.NewCounters()
	}
	n := t.NumNodes()
	return verdicts{
		T: t, D: d, Counters: ctr, Latency: &trace.Series{},
		observer:  observer,
		suspected: make([]bool, n),
		lastSent:  make([]simtime.Time, n),
		lastDown:  make([]simtime.Time, n),
		credited:  make([]bool, n),
		falseSus:  make([]bool, n),
	}
}

// noteDown records a ground-truth outage of node (the OnNodeDown hook).
func (v *verdicts) noteDown(node int) {
	v.lastDown[node] = v.T.Now()
	v.credited[node] = false
}

// outageInSilence reports whether node's current heartbeat silence
// contains an uncredited real outage: the node went down after the last
// heartbeat it managed to SEND, so the silence is genuinely
// failure-caused (whether or not the node has since rebooted).
// Comparing against send time, not arrival, keeps in-flight stragglers
// emitted just before death from masking the outage. Ground truth,
// metrics only.
func (v *verdicts) outageInSilence(node int) bool {
	return v.lastDown[node] > v.lastSent[node] && !v.credited[node]
}

// heard accounts one heartbeat of node sent at sent reaching the
// observer, directly or inside a digest.
func (v *verdicts) heard(node int, sent simtime.Time) {
	if v.outageInSilence(node) && !v.suspected[node] && sent > v.lastDown[node] {
		// A post-reboot heartbeat arrived before the outage was ever
		// suspected: the failure came and went undetected — a false
		// negative.
		v.Counters.Inc("det.missed", 1)
		v.credited[node] = true
	}
	if sent > v.lastSent[node] {
		v.lastSent[node] = sent
	}
}

// judge re-evaluates the suspicion of nodes [0,n) at now, logging and
// classifying every transition.
func (v *verdicts) judge(n int, now simtime.Time) {
	for i := 0; i < n; i++ {
		s := v.D.Suspected(i, now)
		if s == v.suspected[i] {
			continue
		}
		v.suspected[i] = s
		if s {
			v.Counters.Inc("det.suspicions", 1)
			// Classification keys on whether the silence that triggered
			// suspicion was caused by a real outage — not on whether the
			// node happens to be back up at this instant (a repair faster
			// than the detector must not turn a true positive false).
			fp := !v.outageInSilence(i)
			v.falseSus[i] = fp
			if fp {
				v.Counters.Inc("det.false_positives", 1)
			} else {
				v.Counters.Inc("det.detections", 1)
				v.credited[i] = true
				v.Latency.Add(now.Sub(v.lastDown[i]).Millis())
			}
			v.events = append(v.events, Event{Node: i, At: now, Suspected: true, FalsePositive: fp})
		} else {
			v.Counters.Inc("det.recoveries", 1)
			v.events = append(v.events, Event{Node: i, At: now})
		}
	}
}

// Suspected reports the current verdict for node — derived purely from
// the heartbeat stream (this is the supervisor's only failure signal).
func (v *verdicts) Suspected(node int) bool { return v.suspected[node] }

// PickHealthy returns the lowest-numbered node that is neither except,
// the observer, nor currently suspected; -1 when none qualifies.
func (v *verdicts) PickHealthy(except int) int {
	for i := 0; i < v.T.NumNodes(); i++ {
		if i == except || i == v.observer || v.suspected[i] {
			continue
		}
		return i
	}
	return -1
}

// Failover records that the supervisor acted on a suspicion of node —
// restarted the job elsewhere. If the suspicion was a false positive the
// job was still running and the restart was wasted work (counted
// det.wasted_restarts).
func (v *verdicts) Failover(node int) {
	v.Counters.Inc("det.failovers", 1)
	if v.falseSus[node] {
		v.Counters.Inc("det.wasted_restarts", 1)
	}
}

// Events returns the suspicion transition log.
func (v *verdicts) Events() []Event { return v.events }

// Monitor wires heartbeat emission, the network, and a Detector into a
// per-node suspicion service: every node heartbeats straight to the
// observer, and the embedded verdict core judges and accounts.
type Monitor struct {
	verdicts
	Cfg Config

	seq      []uint64
	nextEmit []simtime.Time
}

// NewMonitor builds a monitor, installs its heartbeat handler on the
// observer (chaining to any existing handler) and its emission/eval pump
// on the cluster step, and primes the detector at the current time.
func NewMonitor(t Transport, d Detector, cfg Config, ctr *trace.Counters) *Monitor {
	if cfg.Period <= 0 {
		cfg.Period = 500 * simtime.Microsecond
	}
	n := t.NumNodes()
	m := &Monitor{
		verdicts: newVerdicts(t, d, cfg.Observer, ctr),
		Cfg:      cfg,
		seq:      make([]uint64, n),
		nextEmit: make([]simtime.Time, n),
	}
	now := t.Now()
	for i := 0; i < n; i++ {
		d.Prime(i, now)
		m.nextEmit[i] = now.Add(cfg.Period)
	}
	prev := t.Handler(cfg.Observer)
	t.OnDeliver(cfg.Observer, func(payload any) {
		if hb, ok := payload.(Heartbeat); ok {
			m.onHeartbeat(hb)
			return
		}
		if prev != nil {
			prev(payload)
		}
	})
	t.OnNodeDown(m.noteDown)
	t.OnStep(m.pump)
	return m
}

// onHeartbeat feeds an arrival to the detector.
func (m *Monitor) onHeartbeat(hb Heartbeat) {
	m.Counters.Inc("det.heartbeats", 1)
	m.heard(hb.Node, hb.SentAt)
	m.D.Observe(hb.Node, m.T.Now())
}

// pump runs once per cluster step: emit due heartbeats from live nodes,
// then re-evaluate every node's suspicion.
func (m *Monitor) pump() {
	now := m.T.Now()
	for i := range m.nextEmit {
		// Emission is node-local code: it runs only while the machine
		// does. A dead node falls silent — that silence is the signal.
		for m.T.NodeAlive(i) && now >= m.nextEmit[i] {
			m.seq[i]++
			_ = m.T.Send(i, m.Cfg.Observer, Heartbeat{Node: i, Seq: m.seq[i], SentAt: now}, hbBytes)
			m.nextEmit[i] = m.nextEmit[i].Add(m.Cfg.Period)
		}
		if !m.T.NodeAlive(i) && now >= m.nextEmit[i] {
			// Keep the schedule moving so a rebooted node resumes at the
			// period, not with a burst of back heartbeats.
			m.nextEmit[i] = now.Add(m.Cfg.Period)
		}
	}
	m.judge(len(m.suspected), now)
}
