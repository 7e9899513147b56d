package main

import (
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/mechanism"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/storage"
)

// The wrappers below sit on seams the system already accepts from its
// callers, so a traced run measures the unmodified program. Each one
// forwards every call and adds only spans and counts; the self-tests
// check that traced and untraced runs simulate identically.

// tracedTarget makes each call that moves or commits bytes a span of its
// layer ("storage" for the logical target, "storage.member" for one disk
// behind it) and counts the bytes.
type tracedTarget struct {
	storage.Target
	tr    *tracer
	layer string
}

// traceTarget wraps inner, keeping storage.BatchReader exactly when inner
// implements it: chain loads take a different path without it.
func traceTarget(inner storage.Target, tr *tracer, layer string) storage.Target {
	t := &tracedTarget{Target: inner, tr: tr, layer: layer}
	if br, ok := inner.(storage.BatchReader); ok {
		return &tracedBatchTarget{tracedTarget: t, br: br}
	}
	return t
}

func (t *tracedTarget) Create(object string, env *storage.Env) (storage.Writer, error) {
	t.tr.begin(t.layer + ".write")
	defer t.tr.end()
	w, err := t.Target.Create(object, env)
	if err != nil {
		return nil, err
	}
	return &tracedWriter{Writer: w, t: t}, nil
}

func (t *tracedTarget) ReadObject(object string, env *storage.Env) ([]byte, error) {
	t.tr.begin(t.layer + ".read")
	defer t.tr.end()
	data, err := t.Target.ReadObject(object, env)
	t.tr.add(t.layer+".read_bytes", float64(len(data)))
	return data, err
}

func (t *tracedTarget) Delete(object string) error {
	t.tr.begin(t.layer + ".write")
	defer t.tr.end()
	return t.Target.Delete(object)
}

// ObjectSize is the write path's parent check: erasure sets answer it by
// reading their members.
func (t *tracedTarget) ObjectSize(object string) (int, error) {
	t.tr.begin(t.layer + ".write")
	defer t.tr.end()
	return t.Target.ObjectSize(object)
}

func (t *tracedTarget) Publish(staging, final string, env *storage.Env) error {
	t.tr.begin(t.layer + ".write")
	defer t.tr.end()
	return t.Target.Publish(staging, final, env)
}

type tracedBatchTarget struct {
	*tracedTarget
	br storage.BatchReader
}

func (t *tracedBatchTarget) ReadBatch(objects []string, env *storage.Env) ([][]byte, error) {
	t.tr.begin(t.layer + ".read")
	defer t.tr.end()
	blobs, err := t.br.ReadBatch(objects, env)
	for _, b := range blobs {
		t.tr.add(t.layer+".read_bytes", float64(len(b)))
	}
	return blobs, err
}

type tracedWriter struct {
	storage.Writer
	t *tracedTarget
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	w.t.tr.begin(w.t.layer + ".write")
	defer w.t.tr.end()
	n, err := w.Writer.Write(p)
	w.t.tr.add(w.t.layer+".written_bytes", float64(n))
	return n, err
}

func (w *tracedWriter) Commit() error {
	w.t.tr.begin(w.t.layer + ".write")
	defer w.t.tr.end()
	return w.Writer.Commit()
}

// tracedTracker times dirty-set collection and counts the dirty bytes.
type tracedTracker struct {
	checkpoint.Tracker
	tr *tracer
}

func (t *tracedTracker) Collect() ([]checkpoint.Range, error) {
	t.tr.begin("checkpoint.tracker.collect")
	defer t.tr.end()
	rs, err := t.Tracker.Collect()
	n := 0
	for _, r := range rs {
		n += r.Length
	}
	t.tr.add("checkpoint.tracker.dirty_bytes", float64(n))
	return rs, err
}

// tracedProgram times application stepping.
type tracedProgram struct {
	kernel.Program
	tr *tracer
}

func (p tracedProgram) Step(ctx *kernel.Context) (kernel.Status, error) {
	p.tr.begin("workload.step")
	defer p.tr.end()
	return p.Program.Step(ctx)
}

// tracedDetector times the supervisor's calls into its failure detector.
type tracedDetector struct {
	cluster.FailureDetector
	tr *tracer
}

func (d tracedDetector) Suspected(node int) bool {
	d.tr.begin("detector")
	defer d.tr.end()
	return d.FailureDetector.Suspected(node)
}

func (d tracedDetector) PickHealthy(except int) int {
	d.tr.begin("detector")
	defer d.tr.end()
	return d.FailureDetector.PickHealthy(except)
}

func (d tracedDetector) Failover(node int) {
	d.tr.begin("detector")
	defer d.tr.end()
	d.FailureDetector.Failover(node)
}

// tracedMech times restarts on the host clock and on the restarting
// kernel's simulated clock.
type tracedMech struct {
	mechanism.Mechanism
	tr *tracer
}

func (m *tracedMech) Restart(k *kernel.Kernel, chain []*checkpoint.Image, enqueue bool) (*proc.Process, error) {
	m.tr.begin("mechanism.restart")
	defer m.tr.end()
	t0 := k.Now()
	p, err := m.Mechanism.Restart(k, chain, enqueue)
	m.tr.add("mechanism.restart.sim_ms", k.Now().Sub(t0).Millis())
	return p, err
}

type tracedLazy struct {
	m        *tracedMech
	inner    mechanism.LazyRestarter
	sessions *[]*checkpoint.LazySession
}

func (l *tracedLazy) RestartLazy(k *kernel.Kernel, leaf *checkpoint.Image, opt checkpoint.LazyOptions) (*proc.Process, *checkpoint.LazySession, error) {
	l.m.tr.begin("mechanism.restart_lazy")
	defer l.m.tr.end()
	t0 := k.Now()
	p, s, err := l.inner.RestartLazy(k, leaf, opt)
	l.m.tr.add("mechanism.restart.sim_ms", k.Now().Sub(t0).Millis())
	if s != nil && l.sessions != nil {
		*l.sessions = append(*l.sessions, s)
	}
	return p, s, err
}

// deltaRequest is mechanism.DeltaRequester without its embedded
// Mechanism, so that it can be embedded beside one.
type deltaRequest interface {
	RequestDelta(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env,
		trk checkpoint.Tracker, epoch uint64, rebase bool) (*mechanism.Ticket, error)
}

// wrapMech wraps a mechanism so that the result implements exactly the
// optional interfaces inner does. The supervisor picks its delta, lazy
// and parallel paths by type assertion, so a wrapper that hid one would
// silently send it down a fallback path. Lazy sessions the mechanism
// returns are appended to sessions when it is non-nil.
func wrapMech(inner mechanism.Mechanism, tr *tracer, sessions *[]*checkpoint.LazySession) mechanism.Mechanism {
	m := &tracedMech{Mechanism: inner, tr: tr}
	var d deltaRequest
	if dr, ok := inner.(mechanism.DeltaRequester); ok {
		d = dr
	}
	c, _ := inner.(mechanism.CaptureParallelizer)
	r, _ := inner.(mechanism.RestoreParallelizer)
	var l mechanism.LazyRestarter
	if lr, ok := inner.(mechanism.LazyRestarter); ok {
		l = &tracedLazy{m: m, inner: lr, sessions: sessions}
	}
	return compose(m, d, c, r, l)
}

// compose returns m extended by exactly the optional parts that are
// non-nil.
func compose(m *tracedMech, d deltaRequest, c mechanism.CaptureParallelizer,
	r mechanism.RestoreParallelizer, l mechanism.LazyRestarter) mechanism.Mechanism {
	type (
		D = deltaRequest
		C = mechanism.CaptureParallelizer
		R = mechanism.RestoreParallelizer
		L = mechanism.LazyRestarter
	)
	mask := 0
	for i, has := range []bool{d != nil, c != nil, r != nil, l != nil} {
		if has {
			mask |= 1 << i
		}
	}
	switch mask {
	case 0:
		return m
	case 1:
		return struct {
			*tracedMech
			D
		}{m, d}
	case 2:
		return struct {
			*tracedMech
			C
		}{m, c}
	case 3:
		return struct {
			*tracedMech
			D
			C
		}{m, d, c}
	case 4:
		return struct {
			*tracedMech
			R
		}{m, r}
	case 5:
		return struct {
			*tracedMech
			D
			R
		}{m, d, r}
	case 6:
		return struct {
			*tracedMech
			C
			R
		}{m, c, r}
	case 7:
		return struct {
			*tracedMech
			D
			C
			R
		}{m, d, c, r}
	case 8:
		return struct {
			*tracedMech
			L
		}{m, l}
	case 9:
		return struct {
			*tracedMech
			D
			L
		}{m, d, l}
	case 10:
		return struct {
			*tracedMech
			C
			L
		}{m, c, l}
	case 11:
		return struct {
			*tracedMech
			D
			C
			L
		}{m, d, c, l}
	case 12:
		return struct {
			*tracedMech
			R
			L
		}{m, r, l}
	case 13:
		return struct {
			*tracedMech
			D
			R
			L
		}{m, d, r, l}
	case 14:
		return struct {
			*tracedMech
			C
			R
			L
		}{m, c, r, l}
	default:
		return struct {
			*tracedMech
			D
			C
			R
			L
		}{m, d, c, r, l}
	}
}
