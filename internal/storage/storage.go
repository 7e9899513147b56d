// Package storage models stable storage for checkpoint data. Table 1's
// "Stable storage" column — local, remote, or none — is the Kind of the
// Store a mechanism writes to, and one Store type implements all three:
// node-local disk, a client of a remote checkpoint server reached over
// the interconnect, and a memory target (Software Suspend's standby
// mode). The kinds share every byte-handling path and differ only in
// price (what a seek, a stream, a whole-object read and a publish cost)
// and liveness (whose failure makes the bytes unreachable). §4.1's
// fault-tolerance argument hinges on that second difference: node-local
// checkpoints become unavailable when the node fails, a server's do not.
//
// Checkpoint bytes land in memory once on their way through a store.
// Write, WriteBatch and Writer.Write keep the buffer they are handed, and
// ReadObject and ReadBatch (on every kind, through Replicated and
// OverWire) return the stored slice itself: nobody may modify either
// afterwards, and both are capacity-clipped, so an append reallocates.
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

// nopEnv is the shared discarding Env behind orNop; it is never mutated.
var nopEnv = NopEnv()

// orNop substitutes a discarding Env for nil, so callers that do not care
// about accounting can pass nil everywhere.
func orNop(env *Env) *Env {
	if env == nil {
		return nopEnv
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

// Writer receives checkpoint bytes. Commit makes the object durable and
// visible; Abort discards it. Unlike an io.Writer, Write keeps p: the
// object is the written slices joined, the first one stored as is, so the
// caller must not modify p after the call.
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
	// ReadObject returns the object's bytes, shared with the store and
	// with every other reader: the caller must not modify them. The
	// slice is capacity-clipped, so appending to it reallocates.
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

// get returns the stored bytes themselves, capacity-clipped: callers may
// retain them but must not modify them, and an append reallocates.
func (s *objectStore) get(object string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.objects[object]
	return data[:len(data):len(data)], ok
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

// clear discards every object.
func (s *objectStore) clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects = make(map[string][]byte)
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

// --- Store: every target kind ---

// Store is a storage target of kind local, remote or memory. The kinds
// share one object store, writer and read path; they differ in price
// (open, stream, readCost and publishCost below) and in where liveness
// and the fault policy come from:
//
//   - local: a node's disk, alive while the node is. Checkpoints on it
//     are unreachable while the node is down, which is exactly why
//     Table 1 flags local-only mechanisms as weak fault tolerance.
//   - remote: a node's client view of a Server. Every byte crosses the
//     interconnect and then the server's disk; the server's liveness,
//     fault policy and objects are shared by all its clients, and only
//     this kind's write crashes may escalate to a server outage.
//   - memory: zero-latency RAM (Software Suspend's standby
//     functionality: "saving the image to memory rather than to disk").
//     Its contents do not survive a power-down.
type Store struct {
	name   string
	kind   Kind
	cm     *costmodel.Model
	store  *objectStore
	alive  func() bool
	faults *FaultPolicy
	srv    *Server // remote clients only
}

// Local is an alias of Store, kept for callers that name the local-disk
// kind.
type Local = Store

func alwaysAlive() bool { return true }

func newStore(name string, kind Kind, cm *costmodel.Model, alive func() bool) *Store {
	if alive == nil {
		alive = alwaysAlive
	}
	return &Store{name: name, kind: kind, cm: cm, store: newObjectStore(), alive: alive}
}

// NewLocal creates a local-disk target; alive reports node liveness
// (nil = always alive).
func NewLocal(name string, cm *costmodel.Model, alive func() bool) *Store {
	return newStore(name, KindLocal, cm, alive)
}

// NewMemory creates a memory target; alive is the owning node's liveness
// (nil = always alive).
func NewMemory(name string, alive func() bool) *Store {
	return newStore(name, KindMemory, nil, alive)
}

// NewRemote returns a client for srv, charging transfers with the
// server's cost model.
func NewRemote(name string, srv *Server) *Store {
	return &Store{name: name, kind: KindRemote, cm: srv.cm, store: srv.store, alive: srv.up, srv: srv}
}

// Server is the shared remote checkpoint store (e.g. a parallel
// filesystem or dedicated checkpoint server). It survives compute-node
// failures; Fail/Recover model server outages for failure-injection tests.
type Server struct {
	cm     *costmodel.Model
	store  *objectStore
	up     func() bool
	failed atomic.Bool
	faults *FaultPolicy
}

// NewServer creates a remote checkpoint server. Only its clients carry
// names; the server's name documents the call site.
func NewServer(_ string, cm *costmodel.Model) *Server {
	s := &Server{cm: cm, store: newObjectStore()}
	s.up = func() bool { return !s.failed.Load() }
	return s
}

// Fail takes the server down; Recover brings it back with data intact.
func (s *Server) Fail() { s.failed.Store(true) }

// Recover brings the server back.
func (s *Server) Recover() { s.failed.Store(false) }

// SetFaults installs a per-operation fault-injection policy, shared by
// every remote client of this server (nil disables injection).
func (s *Server) SetFaults(fp *FaultPolicy) { s.faults = fp }

// SetFaults installs a per-operation fault-injection policy (nil
// disables injection). A remote client's policy is its server's.
func (s *Store) SetFaults(fp *FaultPolicy) {
	if s.srv != nil {
		s.srv.SetFaults(fp)
		return
	}
	s.faults = fp
}

func (s *Store) policy() *FaultPolicy {
	if s.srv != nil {
		return s.srv.faults
	}
	return s.faults
}

// Wipe discards all contents: the blank disk of a replacement machine
// after a permanent node failure (§4.1's local-storage caveat), or RAM
// after power loss. On a remote client it wipes the server's store.
func (s *Store) Wipe() { s.store.clear() }

// Name implements Target.
func (s *Store) Name() string { return s.name }

// Kind implements Target.
func (s *Store) Kind() Kind { return s.kind }

// Available implements Target.
func (s *Store) Available() bool { return s.alive() }

func (s *Store) unavailable() error { return fmt.Errorf("%w: %s", ErrTargetUnavailable, s.name) }

func (s *Store) notFound(object string) error {
	return fmt.Errorf("%w: %s/%s", ErrNotFound, s.name, object)
}

// --- Prices: the only place the kinds differ in cost ---

// open charges the positioning that starts a transfer: one disk seek,
// locally or on the server. RAM needs none.
func (s *Store) open(env *Env) {
	switch s.kind {
	case KindLocal:
		env.Wait(s.cm.DiskSeek, "disk-seek")
	case KindRemote:
		env.Wait(s.cm.DiskSeek, "server-seek")
	}
}

// stream charges n bytes of an open transfer: one sequential disk
// stream, or chunk-sized transfers that each cross the interconnect and
// the server's disk.
func (s *Store) stream(env *Env, n int, write bool) {
	switch s.kind {
	case KindLocal:
		what := "disk-read"
		if write {
			what = "disk-write"
		}
		env.Wait(s.cm.DiskStream(n), what)
	case KindRemote:
		what := "net-read"
		if write {
			what = "net-write"
		}
		for off := 0; off < n; off += chunk {
			c := min(n-off, chunk)
			env.Wait(s.cm.NetTransfer(c)+s.cm.DiskStream(c), what)
		}
	}
}

// readCost charges a whole-object read of n bytes: a local disk pays its
// seek and stream as one wait.
func (s *Store) readCost(env *Env, n int) {
	if s.kind == KindLocal {
		env.Wait(s.cm.DiskWrite(n), "disk-read") // seek + stream
		return
	}
	s.open(env)
	s.stream(env, n, false)
}

// publishCost charges an atomic rename: one seek covers the local
// metadata write and its sync; a server adds the round-trip to reach it.
// RAM renames are free.
func (s *Store) publishCost(env *Env) {
	switch s.kind {
	case KindLocal:
		env.Wait(s.cm.DiskSeek, "publish")
	case KindRemote:
		env.Wait(s.cm.NetTransfer(64)+s.cm.DiskSeek, "publish")
	}
}

// --- Target ---

// Create implements Target.
func (s *Store) Create(object string, env *Env) (Writer, error) {
	if !s.alive() {
		return nil, s.unavailable()
	}
	env = orNop(env)
	s.open(env)
	return &storeWriter{s: s, object: object, env: env}, nil
}

type storeWriter struct {
	s      *Store
	object string
	env    *Env
	buf    []byte
	done   bool
}

// own appends p to a writer's buffer. The first write's slice becomes the
// buffer itself, capacity-clipped so a later append reallocates instead
// of writing into the caller's array past p.
func own(buf, p []byte) []byte {
	if buf == nil && len(p) > 0 {
		return p[:len(p):len(p)]
	}
	return append(buf, p...)
}

func (w *storeWriter) Write(p []byte) (int, error) {
	s := w.s
	if w.done {
		return 0, errors.New("storage: write after commit")
	}
	if !s.alive() {
		return 0, s.unavailable()
	}
	fp := s.policy()
	frac, outage, crash := fp.crashWrite(s.kind == KindRemote)
	n := len(p)
	if crash {
		n = int(frac * float64(len(p)))
	}
	s.stream(w.env, n, true)
	w.buf = own(w.buf, p[:n])
	if !crash {
		return n, nil
	}
	// Whatever streamed so far stays behind as a torn object: the writer
	// is gone and nobody is alive to clean it up.
	s.store.put(w.object, w.buf)
	w.done = true
	if outage {
		// The crash was the server going down mid-transfer.
		s.srv.Fail()
		if fp.OnOutage != nil {
			fp.OnOutage()
		}
		return n, fmt.Errorf("%w: %s/%s: %w", ErrFault, s.name, w.object, ErrTargetUnavailable)
	}
	return n, fmt.Errorf("%w: %s/%s", ErrFault, s.name, w.object)
}

func (w *storeWriter) Commit() error {
	if w.done {
		return errors.New("storage: double commit")
	}
	if !w.s.alive() {
		return w.s.unavailable()
	}
	w.done = true
	w.s.store.put(w.object, w.buf)
	return nil
}

// Abort discards the unstored bytes; a crash's torn object is already
// stored and has no undo.
func (w *storeWriter) Abort() { w.done, w.buf = true, nil }

// ReadObject implements Target.
func (s *Store) ReadObject(object string, env *Env) ([]byte, error) {
	if !s.alive() {
		return nil, s.unavailable()
	}
	data, ok := s.store.get(object)
	if !ok {
		return nil, s.notFound(object)
	}
	s.readCost(orNop(env), len(data))
	return data, nil
}

// ReadBatch implements BatchReader: one positioning cost, then every
// object streamed in sequence.
func (s *Store) ReadBatch(objects []string, env *Env) ([][]byte, error) {
	if !s.alive() {
		return nil, s.unavailable()
	}
	env = orNop(env)
	out := make([][]byte, len(objects))
	for i, name := range objects {
		data, ok := s.store.get(name)
		if !ok {
			return nil, s.notFound(name)
		}
		if i == 0 {
			s.open(env)
		}
		s.stream(env, len(data), false)
		out[i] = data
	}
	return out, nil
}

// List implements Target.
func (s *Store) List() []string { return s.store.list() }

// Delete implements Target. An unreachable target cannot be mutated, and
// the object's fate is unknown: the typed unavailability error lets GC
// sweeps keep it pending instead of mistaking "down" for "already gone".
func (s *Store) Delete(object string) error {
	if !s.alive() {
		return s.unavailable()
	}
	if !s.store.remove(object) {
		return s.notFound(object)
	}
	return nil
}

// ObjectSize implements Target.
func (s *Store) ObjectSize(object string) (int, error) {
	if !s.alive() {
		return 0, s.unavailable()
	}
	data, ok := s.store.get(object)
	if !ok {
		return 0, s.notFound(object)
	}
	return len(data), nil
}

// Publish implements Target.
func (s *Store) Publish(staging, final string, env *Env) error {
	if !s.alive() {
		return s.unavailable()
	}
	if s.policy().failPublish() {
		return fmt.Errorf("%w: publish %s/%s", ErrFault, s.name, final)
	}
	s.publishCost(orNop(env))
	return s.store.rename(staging, final)
}
