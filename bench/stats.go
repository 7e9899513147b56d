package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/costmodel"
)

// minBeyond is how many samples must lie above a reported percentile:
// p50 needs 20 samples and p90 needs 100.
const minBeyond = 10

// percentile returns the nearest-rank pct-th percentile of xs. It
// refuses a percentile with fewer than minBeyond samples above it, since
// such a tail is one or two observations wide.
func percentile(xs []float64, pct int) (float64, error) {
	n := len(xs)
	rank := (pct*n + 99) / 100
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, want >= %d", pct, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// recorder collects one run's measurements. Simulated-clock samples are
// kept only for the workload's first simRounds rounds, so a seed's
// simulated metrics do not depend on how many rounds the host finished
// within the time budget; host-clock op samples come from every round.
type recorder struct {
	tr *tracer

	simRound   bool
	roundStart time.Time
	pausedFor  time.Duration
	rounds     int
	wall       time.Duration // host time of every round, checks excluded

	hostOp    []float64 // ms per unit op, every round
	simOp     []float64 // ms per unit op, sim rounds
	roundSim  []float64 // ms per round, sim rounds
	roundWall []float64 // host seconds per round, every round

	attempted, failed int

	// sums and counts of named quantities; reported per round or as
	// means by the metric catalogue.
	sums map[string]float64
	ns   map[string]int
	// ledger, when the workload bills storage waits to one, holds the
	// measured phase's simulated waits by label.
	ledger *costmodel.Ledger

	// unattributed is, per traced op, the share of its host time that
	// no wrapped layer accounts for.
	unattributed []float64
	// events holds rendered event logs when config.keepEvents is set.
	events []string
}

func newRecorder(tr *tracer) *recorder {
	return &recorder{tr: tr, sums: make(map[string]float64), ns: make(map[string]int)}
}

func (r *recorder) beginRound(sim bool) {
	r.simRound = sim
	r.pausedFor = 0
	r.roundStart = time.Now()
}

func (r *recorder) endRound(simMs float64) {
	wall := time.Since(r.roundStart) - r.pausedFor
	r.wall += wall
	r.roundWall = append(r.roundWall, wall.Seconds())
	if r.simRound {
		r.roundSim = append(r.roundSim, simMs)
	}
	r.rounds++
}

func (r *recorder) host(v float64) { r.hostOp = append(r.hostOp, v) }

func (r *recorder) sim(v float64) {
	if r.simRound {
		r.simOp = append(r.simOp, v)
	}
}

// add accumulates one observation of a named quantity.
func (r *recorder) add(key string, v float64) { r.addN(key, v, 1) }

// addN accumulates n observations that sum to v.
func (r *recorder) addN(key string, v float64, n int) {
	r.sums[key] += v
	r.ns[key] += n
}

func (r *recorder) meanOf(key string) float64 {
	if r.ns[key] == 0 {
		return 0
	}
	return r.sums[key] / float64(r.ns[key])
}

// perRound reports a summed quantity per completed round.
func (r *recorder) perRound(v float64) float64 {
	if r.rounds == 0 {
		return 0
	}
	return v / float64(r.rounds)
}

// verify runs check with every clock paused, since verification is the
// benchmark's own work, and reports whether it passed.
func (r *recorder) verify(check func() error) bool {
	var err error
	r.offClock(func() { err = check() })
	if err != nil {
		logf("verify: %v", err)
	}
	return err == nil
}

// offClock runs fn outside the round's host time and the trace.
func (r *recorder) offClock(fn func()) {
	start := time.Now()
	r.tr.pause()
	fn()
	r.tr.resume()
	r.pausedFor += time.Since(start)
}

// opStart marks the start of one client op for trace reconciliation;
// the returned func ends it. Untraced runs record nothing.
func (r *recorder) opStart() func() {
	if r.tr == nil {
		return func() {}
	}
	start, top := time.Now(), r.tr.top
	return func() {
		wall := time.Since(start)
		if wall > 0 {
			r.unattributed = append(r.unattributed, 100*float64(wall-(r.tr.top-top))/float64(wall))
		}
	}
}
