// Package storage models stable storage for checkpoint data: node-local
// disk, a remote checkpoint server reached over the interconnect, and a
// memory target (Software Suspend's standby mode). Table 1's "Stable
// storage" column — local, remote, or none — is the Kind a mechanism
// writes to, and §4.1's fault-tolerance argument hinges on the difference:
// node-local checkpoints become unavailable when the node fails.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/costmodel"
	"repro/internal/simtime"
)

// Kind classifies a target for Table 1.
type Kind uint8

// Target kinds.
const (
	KindNone Kind = iota
	KindLocal
	KindRemote
	KindMemory
	KindReplicated
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindLocal:
		return "local"
	case KindRemote:
		return "remote"
	case KindMemory:
		return "memory"
	case KindReplicated:
		return "replicated"
	}
	return "?"
}

// Env carries the accounting hooks for storage operations. Bill charges
// CPU-attributed time; Wait spends I/O time, during which a kernel-backed
// Env lets other processes run.
type Env struct {
	Bill costmodel.Biller
	Wait func(d simtime.Duration, what string)
}

// NopEnv returns an Env that discards all accounting (probing, tests).
func NopEnv() *Env {
	return &Env{Bill: costmodel.Discard{}, Wait: func(simtime.Duration, string) {}}
}

// orNop substitutes a discarding Env for nil, so callers that do not care
// about accounting can pass nil everywhere.
func orNop(env *Env) *Env {
	if env == nil {
		return NopEnv()
	}
	return env
}

// LedgerEnv returns an Env accumulating both CPU and wait time in l.
func LedgerEnv(l *costmodel.Ledger) *Env {
	return &Env{Bill: l, Wait: func(d simtime.Duration, what string) { l.Charge(d, "wait:"+what) }}
}

// Errors.
var (
	// ErrTargetUnavailable means the target itself cannot be reached (a
	// failed node's disk, a server outage). Every Target method wraps it
	// with the target name, so replica-selection logic can tell "node
	// down" (try the next replica) from ErrNotFound "object missing"
	// (the replica is healthy but never got the object).
	ErrTargetUnavailable = errors.New("storage: target unavailable")
	ErrNotFound          = errors.New("storage: object not found")
	// ErrQuorum means a replicated write reached fewer replicas than its
	// configured write quorum; the object must not be acked.
	ErrQuorum = errors.New("storage: replica write quorum not met")
)

// ErrUnavailable is the historical name for ErrTargetUnavailable; the
// two are the same value, so errors.Is matches either way.
var ErrUnavailable = ErrTargetUnavailable

// Writer receives checkpoint bytes. Commit makes the object durable and
// visible; Abort discards it.
type Writer interface {
	Write(p []byte) (int, error)
	Commit() error
	Abort()
}

// Target is a place checkpoints are written to and restarted from.
type Target interface {
	Name() string
	Kind() Kind
	// Available reports whether the target's data can be reached now (a
	// failed node's local disk is not).
	Available() bool
	Create(object string, env *Env) (Writer, error)
	ReadObject(object string, env *Env) ([]byte, error)
	List() []string
	Delete(object string) error
	// ObjectSize returns the stored size of an object.
	ObjectSize(object string) (int, error)
	// Publish atomically renames a fully-written staging object to its
	// final name, replacing any previous object under that name. The
	// rename either happens completely or not at all (a failed Publish
	// leaves both names as they were), which is what an atomic Write builds
	// its all-or-nothing commit on.
	Publish(staging, final string, env *Env) error
}

// chunk is the transfer granularity for cost accounting.
const chunk = 64 << 10

// --- In-memory object store used by all targets ---

// objectStore is mutex-protected: replicated writes fan out from
// concurrent agents, and the -race suite drives several writers at one
// store at once.
type objectStore struct {
	mu      sync.Mutex
	objects map[string][]byte
}

func newObjectStore() *objectStore { return &objectStore{objects: make(map[string][]byte)} }

// get returns a copy of the object's bytes (callers may retain it).
func (s *objectStore) get(object string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.objects[object]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), data...), true
}

func (s *objectStore) put(object string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[object] = data
}

// remove deletes the object, reporting whether it existed.
func (s *objectStore) remove(object string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[object]; !ok {
		return false
	}
	delete(s.objects, object)
	return true
}

func (s *objectStore) size(object string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.objects[object]
	return len(data), ok
}

func (s *objectStore) rename(old, new string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.objects[old]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, old)
	}
	s.objects[new] = data
	delete(s.objects, old)
	return nil
}

// tear truncates a stored object to keepFrac of its bytes, deleting it
// outright when nothing survives (the lost-image case).
func (s *objectStore) tear(object string, keepFrac float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.objects[object]
	if !ok {
		return
	}
	keep := int(keepFrac * float64(len(data)))
	if keep <= 0 {
		delete(s.objects, object)
		return
	}
	s.objects[object] = data[:keep]
}

func (s *objectStore) list() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.objects))
	for n := range s.objects {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// --- Local disk ---

// Local is a node-local disk target. Liveness is delegated to the owning
// node: when the node is down the checkpoints are unreachable, which is
// exactly why Table 1 flags local-only mechanisms as weak fault tolerance.
type Local struct {
	name   string
	cm     *costmodel.Model
	store  *objectStore
	alive  func() bool
	faults *FaultPolicy
}

// NewLocal creates a local-disk target; alive reports node liveness
// (nil = always alive).
func NewLocal(name string, cm *costmodel.Model, alive func() bool) *Local {
	if alive == nil {
		alive = func() bool { return true }
	}
	return &Local{name: name, cm: cm, store: newObjectStore(), alive: alive}
}

// SetFaults installs a per-operation fault-injection policy (nil
// disables injection).
func (l *Local) SetFaults(fp *FaultPolicy) { l.faults = fp }

func (l *Local) faultsOf() *FaultPolicy { return l.faults }

func (l *Local) tearObject(object string, keepFrac float64) { l.store.tear(object, keepFrac) }

// Wipe discards all contents — the blank disk of a replacement machine
// after a permanent node failure (§4.1's local-storage caveat).
func (l *Local) Wipe() { l.store = newObjectStore() }

// Name implements Target.
func (l *Local) Name() string { return l.name }

// Kind implements Target.
func (l *Local) Kind() Kind { return KindLocal }

// Available implements Target.
func (l *Local) Available() bool { return l.alive() }

// Create implements Target.
func (l *Local) Create(object string, env *Env) (Writer, error) {
	env = orNop(env)
	if !l.Available() {
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, l.name)
	}
	// One seek to start the file.
	env.Wait(l.cm.DiskSeek, "disk-seek")
	return &localWriter{l: l, object: object, env: env}, nil
}

type localWriter struct {
	l       *Local
	object  string
	env     *Env
	buf     []byte
	done    bool
	crashed bool
}

func (w *localWriter) Write(p []byte) (int, error) {
	if w.done {
		return 0, errors.New("storage: write after commit")
	}
	if !w.l.Available() {
		return 0, fmt.Errorf("%w: %s", ErrUnavailable, w.l.name)
	}
	if frac, _, crash := w.l.faults.crashWrite(false); crash {
		keep := int(frac * float64(len(p)))
		w.env.Wait(w.l.cm.DiskStream(keep), "disk-write")
		w.buf = append(w.buf, p[:keep]...)
		// The crash leaves whatever streamed so far on disk as a torn
		// object; nobody is alive to clean it up.
		w.l.store.put(w.object, append([]byte(nil), w.buf...))
		w.done, w.crashed = true, true
		return keep, fmt.Errorf("%w: %s/%s", ErrFault, w.l.name, w.object)
	}
	w.env.Wait(w.l.cm.DiskStream(len(p)), "disk-write")
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *localWriter) Commit() error {
	if w.done {
		return errors.New("storage: double commit")
	}
	if !w.l.Available() {
		return fmt.Errorf("%w: %s", ErrUnavailable, w.l.name)
	}
	w.done = true
	w.l.store.put(w.object, w.buf)
	return nil
}

func (w *localWriter) Abort() {
	w.done = true
	if w.crashed {
		return // the torn object is already on disk; a crash has no undo
	}
	w.buf = nil
}

// ReadObject implements Target.
func (l *Local) ReadObject(object string, env *Env) ([]byte, error) {
	env = orNop(env)
	if !l.Available() {
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, l.name)
	}
	data, ok := l.store.get(object)
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, l.name, object)
	}
	env.Wait(l.cm.DiskWrite(len(data)), "disk-read") // seek + stream
	return data, nil
}

// List implements Target.
func (l *Local) List() []string { return l.store.list() }

// Delete implements Target. A dead node's disk cannot be mutated — the
// typed unavailability error lets GC sweeps keep the object pending
// instead of mistaking "node down" for "already gone".
func (l *Local) Delete(object string) error {
	if !l.Available() {
		return fmt.Errorf("%w: %s", ErrTargetUnavailable, l.name)
	}
	if !l.store.remove(object) {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, l.name, object)
	}
	return nil
}

// ObjectSize implements Target.
func (l *Local) ObjectSize(object string) (int, error) {
	if !l.Available() {
		return 0, fmt.Errorf("%w: %s", ErrTargetUnavailable, l.name)
	}
	n, ok := l.store.size(object)
	if !ok {
		return 0, fmt.Errorf("%w: %s/%s", ErrNotFound, l.name, object)
	}
	return n, nil
}

// Publish implements Target. The one seek covers the metadata write and
// the sync that makes the rename durable.
func (l *Local) Publish(staging, final string, env *Env) error {
	env = orNop(env)
	if !l.Available() {
		return fmt.Errorf("%w: %s", ErrUnavailable, l.name)
	}
	if l.faults.failPublish() {
		return fmt.Errorf("%w: publish %s/%s", ErrFault, l.name, final)
	}
	env.Wait(l.cm.DiskSeek, "publish")
	return l.store.rename(staging, final)
}

// --- Remote checkpoint server ---

// Server is the shared remote checkpoint store (e.g. a parallel
// filesystem or dedicated checkpoint server). It survives compute-node
// failures; Fail/Recover model server outages for failure-injection tests.
type Server struct {
	name   string
	cm     *costmodel.Model
	store  *objectStore
	failed atomic.Bool
	faults *FaultPolicy
}

// NewServer creates a remote checkpoint server.
func NewServer(name string, cm *costmodel.Model) *Server {
	return &Server{name: name, cm: cm, store: newObjectStore()}
}

// Fail takes the server down; Recover brings it back with data intact.
func (s *Server) Fail() { s.failed.Store(true) }

// Recover brings the server back.
func (s *Server) Recover() { s.failed.Store(false) }

// SetFaults installs a per-operation fault-injection policy, shared by
// every Remote client of this server (nil disables injection).
func (s *Server) SetFaults(fp *FaultPolicy) { s.faults = fp }

// Remote is a node's client view of a Server: every byte crosses the
// interconnect (charged per chunk) and then the server's disk.
type Remote struct {
	name string
	srv  *Server
	cm   *costmodel.Model
}

// NewRemote returns a client for srv, charging transfers with cm.
func NewRemote(name string, srv *Server) *Remote {
	return &Remote{name: name, srv: srv, cm: srv.cm}
}

// Name implements Target.
func (r *Remote) Name() string { return r.name }

// Kind implements Target.
func (r *Remote) Kind() Kind { return KindRemote }

// Available implements Target.
func (r *Remote) Available() bool { return !r.srv.failed.Load() }

// Create implements Target.
func (r *Remote) Create(object string, env *Env) (Writer, error) {
	env = orNop(env)
	if !r.Available() {
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, r.name)
	}
	env.Wait(r.cm.DiskSeek, "server-seek")
	return &remoteWriter{r: r, object: object, env: env}, nil
}

type remoteWriter struct {
	r       *Remote
	object  string
	env     *Env
	buf     []byte
	done    bool
	crashed bool
}

func (w *remoteWriter) Write(p []byte) (int, error) {
	if w.done {
		return 0, errors.New("storage: write after commit")
	}
	if !w.r.Available() {
		return 0, fmt.Errorf("%w: %s", ErrUnavailable, w.r.name)
	}
	srv := w.r.srv
	if frac, outage, crash := srv.faults.crashWrite(true); crash {
		keep := int(frac * float64(len(p)))
		w.chargeTransfer(keep)
		w.buf = append(w.buf, p[:keep]...)
		// The prefix that crossed the wire is on the server as a torn
		// object; the client's connection is gone.
		srv.store.put(w.object, append([]byte(nil), w.buf...))
		w.done, w.crashed = true, true
		if outage {
			// The crash was the server going down mid-transfer.
			srv.Fail()
			if srv.faults.OnOutage != nil {
				srv.faults.OnOutage()
			}
			return keep, fmt.Errorf("%w: %s/%s: %w", ErrFault, w.r.name, w.object, ErrUnavailable)
		}
		return keep, fmt.Errorf("%w: %s/%s", ErrFault, w.r.name, w.object)
	}
	w.chargeTransfer(len(p))
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// chargeTransfer bills n bytes of interconnect + server-disk time in
// chunk-sized transfers.
func (w *remoteWriter) chargeTransfer(n int) {
	for off := 0; off < n; off += chunk {
		c := n - off
		if c > chunk {
			c = chunk
		}
		w.env.Wait(w.r.cm.NetTransfer(c)+w.r.cm.DiskStream(c), "net-write")
	}
}

func (w *remoteWriter) Commit() error {
	if w.done {
		return errors.New("storage: double commit")
	}
	if !w.r.Available() {
		return fmt.Errorf("%w: %s", ErrUnavailable, w.r.name)
	}
	w.done = true
	w.r.srv.store.put(w.object, w.buf)
	return nil
}

func (w *remoteWriter) Abort() {
	w.done = true
	if w.crashed {
		return // the torn object already reached the server
	}
	w.buf = nil
}

// ReadObject implements Target.
func (r *Remote) ReadObject(object string, env *Env) ([]byte, error) {
	env = orNop(env)
	if !r.Available() {
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, r.name)
	}
	data, ok := r.srv.store.get(object)
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, r.name, object)
	}
	env.Wait(r.cm.DiskSeek, "server-seek")
	for off := 0; off < len(data); off += chunk {
		n := len(data) - off
		if n > chunk {
			n = chunk
		}
		env.Wait(r.cm.NetTransfer(n)+r.cm.DiskStream(n), "net-read")
	}
	return data, nil
}

// List implements Target.
func (r *Remote) List() []string { return r.srv.store.list() }

// Delete implements Target. During a server outage the object's fate is
// unknown, so the typed unavailability error keeps GC sweeps retrying.
func (r *Remote) Delete(object string) error {
	if !r.Available() {
		return fmt.Errorf("%w: %s", ErrTargetUnavailable, r.name)
	}
	if !r.srv.store.remove(object) {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, r.name, object)
	}
	return nil
}

// ObjectSize implements Target.
func (r *Remote) ObjectSize(object string) (int, error) {
	if !r.Available() {
		return 0, fmt.Errorf("%w: %s", ErrTargetUnavailable, r.name)
	}
	n, ok := r.srv.store.size(object)
	if !ok {
		return 0, fmt.Errorf("%w: %s/%s", ErrNotFound, r.name, object)
	}
	return n, nil
}

// Publish implements Target: one server-side metadata round-trip.
func (r *Remote) Publish(staging, final string, env *Env) error {
	env = orNop(env)
	if !r.Available() {
		return fmt.Errorf("%w: %s", ErrUnavailable, r.name)
	}
	if r.srv.faults.failPublish() {
		return fmt.Errorf("%w: publish %s/%s", ErrFault, r.name, final)
	}
	env.Wait(r.cm.NetTransfer(64)+r.cm.DiskSeek, "publish")
	return r.srv.store.rename(staging, final)
}

func (r *Remote) faultsOf() *FaultPolicy { return r.srv.faults }

func (r *Remote) tearObject(object string, keepFrac float64) { r.srv.store.tear(object, keepFrac) }

// --- Memory target ---

// Memory is a zero-latency in-RAM target (Software Suspend's standby
// functionality: "saving the image to memory rather than to disk"). Its
// contents do not survive a node failure or power-down.
type Memory struct {
	name  string
	store *objectStore
	alive func() bool
}

// NewMemory creates a memory target; alive is the owning node's liveness.
func NewMemory(name string, alive func() bool) *Memory {
	if alive == nil {
		alive = func() bool { return true }
	}
	return &Memory{name: name, store: newObjectStore(), alive: alive}
}

// Name implements Target.
func (m *Memory) Name() string { return m.name }

// Kind implements Target.
func (m *Memory) Kind() Kind { return KindMemory }

// Available implements Target.
func (m *Memory) Available() bool { return m.alive() }

// Drop destroys all contents (power loss).
func (m *Memory) Drop() { m.store = newObjectStore() }

// Create implements Target.
func (m *Memory) Create(object string, env *Env) (Writer, error) {
	env = orNop(env)
	if !m.Available() {
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, m.name)
	}
	return &memWriter{m: m, object: object, env: env}, nil
}

type memWriter struct {
	m      *Memory
	object string
	env    *Env
	buf    []byte
	done   bool
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.done {
		return 0, errors.New("storage: write after commit")
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *memWriter) Commit() error {
	if w.done {
		return errors.New("storage: double commit")
	}
	w.done = true
	w.m.store.put(w.object, w.buf)
	return nil
}

func (w *memWriter) Abort() { w.done = true; w.buf = nil }

// ReadObject implements Target.
func (m *Memory) ReadObject(object string, env *Env) ([]byte, error) {
	env = orNop(env)
	if !m.Available() {
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, m.name)
	}
	data, ok := m.store.get(object)
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, m.name, object)
	}
	return data, nil
}

// List implements Target.
func (m *Memory) List() []string { return m.store.list() }

// Delete implements Target.
func (m *Memory) Delete(object string) error {
	if !m.Available() {
		return fmt.Errorf("%w: %s", ErrTargetUnavailable, m.name)
	}
	if !m.store.remove(object) {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, m.name, object)
	}
	return nil
}

// ObjectSize implements Target.
func (m *Memory) ObjectSize(object string) (int, error) {
	if !m.Available() {
		return 0, fmt.Errorf("%w: %s", ErrTargetUnavailable, m.name)
	}
	n, ok := m.store.size(object)
	if !ok {
		return 0, fmt.Errorf("%w: %s/%s", ErrNotFound, m.name, object)
	}
	return n, nil
}

// Publish implements Target. RAM renames are free and never faulted.
func (m *Memory) Publish(staging, final string, _ *Env) error {
	if !m.Available() {
		return fmt.Errorf("%w: %s", ErrUnavailable, m.name)
	}
	return m.store.rename(staging, final)
}
