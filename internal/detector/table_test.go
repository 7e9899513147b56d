package detector

import (
	"math/rand"
	"testing"

	"repro/internal/simtime"
)

// mapTimeout is the map-backed fixed-timeout detector the dense table
// replaced, kept as the equivalence reference.
type mapTimeout struct {
	after simtime.Duration
	last  map[int]simtime.Time
}

func (d *mapTimeout) Prime(node int, t simtime.Time) {
	if _, ok := d.last[node]; !ok {
		d.last[node] = t
	}
}

func (d *mapTimeout) Observe(node int, t simtime.Time) {
	if t > d.last[node] {
		d.last[node] = t
	}
}

func (d *mapTimeout) Suspected(node int, now simtime.Time) bool {
	return now.Sub(d.last[node]) > d.after
}

// mapPhi is the map-backed phi-accrual state the dense table replaced;
// it shares only the phi formula with PhiAccrual.
type mapPhi struct {
	window    int
	minStddev simtime.Duration
	nodes     map[int]*phiState
}

func (d *mapPhi) state(node int) *phiState {
	st, ok := d.nodes[node]
	if !ok {
		st = &phiState{intervals: make([]simtime.Duration, d.window)}
		d.nodes[node] = st
	}
	return st
}

func (d *mapPhi) Prime(node int, t simtime.Time) {
	st := d.state(node)
	if st.last == 0 && st.n == 0 {
		st.last = t
	}
}

func (d *mapPhi) Observe(node int, t simtime.Time) {
	st := d.state(node)
	if t <= st.last {
		return
	}
	st.intervals[st.next] = t.Sub(st.last)
	st.next = (st.next + 1) % d.window
	if st.n < d.window {
		st.n++
	}
	st.last = t
}

func (d *mapPhi) Phi(node int, now simtime.Time) float64 {
	return d.state(node).phi(now, d.minStddev)
}

// The dense per-node tables behave exactly like the maps they replaced:
// random Prime/Observe/Suspected sequences over ids that start in the
// middle of the range, reach below the first id seen, leave gaps,
// repeat, and arrive with out-of-order (and zero) times give the same
// verdict and the same phi after every step.
func TestDenseDetectorsMatchMapReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		after := simtime.Duration(1+rng.Intn(5)) * simtime.Millisecond
		window := 1 + rng.Intn(8)
		minStd := simtime.Duration(rng.Intn(300)) * simtime.Microsecond
		to, toRef := NewTimeout(after), &mapTimeout{after: after, last: map[int]simtime.Time{}}
		phi, phiRef := NewPhiAccrual(1+rng.Float64()*4, window, minStd),
			&mapPhi{window: window, minStddev: minStd, nodes: map[int]*phiState{}}

		// Ids in [lo, lo+span) with the first id drawn from the middle,
		// sometimes strided so the touched ids leave gaps.
		lo, span, stride := rng.Intn(200)-100, 1+rng.Intn(64), 1+rng.Intn(3)
		node := func() int { return lo + stride*rng.Intn(span) }
		first := lo + stride*(span/2)
		now := simtime.Time(0)
		for step := 0; step < 300; step++ {
			n := node()
			if step == 0 {
				n = first
			}
			// Times mostly advance, but sometimes step back or sit at 0.
			switch r := rng.Intn(10); {
			case r < 6:
				now = now.Add(simtime.Duration(rng.Intn(2000)) * simtime.Microsecond)
			case r < 8:
				now = now.Add(-simtime.Duration(rng.Intn(1500)) * simtime.Microsecond)
			case r < 9:
				now = 0
			}
			at := now
			if rng.Intn(4) == 0 {
				at = now.Add(-simtime.Duration(rng.Intn(3000)) * simtime.Microsecond)
			}
			switch rng.Intn(3) {
			case 0:
				to.Prime(n, at)
				toRef.Prime(n, at)
				phi.Prime(n, at)
				phiRef.Prime(n, at)
			default:
				to.Observe(n, at)
				toRef.Observe(n, at)
				phi.Observe(n, at)
				phiRef.Observe(n, at)
			}
			for _, q := range []int{n, node(), lo - stride - 1, lo + stride*span + 1} {
				if got, want := to.Suspected(q, now), toRef.Suspected(q, now); got != want {
					t.Fatalf("seed %d step %d: Timeout.Suspected(%d, %v) = %v, map reference %v",
						seed, step, q, now, got, want)
				}
				if got, want := phi.Phi(q, now), phiRef.Phi(q, now); got != want {
					t.Fatalf("seed %d step %d: Phi(%d, %v) = %v, map reference %v",
						seed, step, q, now, got, want)
				}
				if got, want := phi.Suspected(q, now), phiRef.Phi(q, now) >= phi.Threshold; got != want {
					t.Fatalf("seed %d step %d: PhiAccrual.Suspected(%d) = %v, map reference %v",
						seed, step, q, got, want)
				}
			}
		}
	}
}
