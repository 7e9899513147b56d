package main

import "time"

// tracer records host-clock spans at the layer boundaries the benchmark
// wraps and keeps each layer's self time: a span's duration minus the
// part of it that child spans cover. Every wrapped seam is called from
// the goroutine driving the workload, so the tracer needs no locking.
// A nil *tracer is a valid, disabled tracer: untraced runs install no
// wrappers and pay only a nil check at the benchmark's own spans.
type tracer struct {
	paused int
	stack  []span
	self   map[string]time.Duration
	calls  map[string]int
	// top is the summed duration of outermost spans; an op's attributed
	// time is how much it grew while the op ran.
	top time.Duration
	// vals holds counts and sizes recorded at the seams.
	vals map[string]float64
}

type span struct {
	layer string
	start time.Time
	child time.Duration
	skip  bool
}

func newTracer() *tracer {
	return &tracer{
		self:  make(map[string]time.Duration),
		calls: make(map[string]int),
		vals:  make(map[string]float64),
	}
}

// begin opens a span of layer. Spans opened while paused are popped by
// their end but recorded nowhere.
func (t *tracer) begin(layer string) {
	if t == nil {
		return
	}
	s := span{layer: layer, skip: t.paused > 0}
	if !s.skip {
		s.start = time.Now()
	}
	t.stack = append(t.stack, s)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	s := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	if s.skip {
		return
	}
	d := time.Since(s.start)
	t.self[s.layer] += d - s.child
	t.calls[s.layer]++
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	} else {
		t.top += d
	}
}

// add accumulates v under key unless the tracer is paused.
func (t *tracer) add(key string, v float64) {
	if t == nil || t.paused > 0 {
		return
	}
	t.vals[key] += v
}

// pause stops recording until the matching resume: verification work
// runs through the same wrapped seams but belongs to no layer's cost.
func (t *tracer) pause() {
	if t != nil {
		t.paused++
	}
}

func (t *tracer) resume() {
	if t != nil {
		t.paused--
	}
}

func (t *tracer) selfMs(layer string) float64 {
	if t == nil {
		return 0
	}
	return float64(t.self[layer]) / float64(time.Millisecond)
}
