// Replicated storage: one logical Target fanning out to a placement set
// of real targets. This is the §4.1 answer to "node-local checkpoints
// die with the node" — Charm++'s double local-storage scheme generalised:
// mirror the object to self + buddies (plus optionally the remote
// server), or cut it into k-of-n erasure shards, and acknowledge only
// when a write quorum has durably published. Reads walk a degraded-read
// ladder — local, buddy, shards, reconstruct, remote — so a restore pays
// the nearest surviving replica's price, not the worst one's.
//
// The fence contract composes by construction: callers wrap each member
// target in FencedAt *before* handing it to NewReplicated, so the epoch
// check runs on every replica's commit point independently. A stale
// writer is rejected by all of them — there is no replica a zombie can
// sneak a publish onto.

package storage

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/simtime"
	"repro/internal/storage/erasure"
	"repro/internal/trace"
)

// ReplicaRole classifies a placement slot for read ordering and the
// repl.read_source histogram.
type ReplicaRole uint8

// Roles, in degraded-read preference order.
const (
	RoleLocal  ReplicaRole = iota // the owner node's own disk
	RoleBuddy                     // a buddy node's disk, reached over the wire
	RoleShard                     // one erasure-shard holder
	RoleRemote                    // the shared checkpoint server
)

func (r ReplicaRole) String() string {
	switch r {
	case RoleLocal:
		return "local"
	case RoleBuddy:
		return "buddy"
	case RoleShard:
		return "shard"
	case RoleRemote:
		return "remote"
	}
	return "?"
}

// Read-source classes observed into the repl.read_source histogram: the
// role that served a mirror read, or the two erasure outcomes.
const (
	ReadSourceLocal       = 0 // served from the owner's own disk
	ReadSourceBuddy       = 1 // served from a buddy replica
	ReadSourceShards      = 2 // erasure: decoded from the data shards alone, no solve
	ReadSourceReconstruct = 3 // erasure: parity solve required
	ReadSourceRemote      = 4 // served from the shared server
)

// Replica is one placement slot.
type Replica struct {
	T    Target
	Role ReplicaRole
}

// ReplicatedConfig tunes a Replicated target.
type ReplicatedConfig struct {
	// Quorum is how many replicas must durably publish before the write
	// is acknowledged. 0 defaults to 2 for mirrors (self + one survivor)
	// and DataShards+1 for erasure sets (lose any one shard and still
	// decode), both capped at the replica count.
	Quorum int
	// DataShards/ParityShards select erasure mode: the object is cut
	// into DataShards+ParityShards shards, one per replica slot (the
	// replica count must equal the shard count). Both zero = mirror mode.
	DataShards   int
	ParityShards int
	// Counters receives repl.* counts (created when nil).
	Counters *trace.Counters
	// Metrics receives the repl.read_source histogram (created when nil).
	Metrics *trace.Metrics
}

// Replicated is a Target spanning a placement set. It implements
// BatchReader so chain-manifest restores keep their batched fast path,
// and PieceReader so they read an erasure set's planes without a join.
type Replicated struct {
	name string
	reps []Replica
	cfg  ReplicatedConfig
}

// NewReplicated builds a replicated target over the placement set.
// Fence wrapping is the caller's job: pass each member through FencedAt
// first so stale-epoch rejection happens per replica.
func NewReplicated(name string, reps []Replica, cfg ReplicatedConfig) (*Replicated, error) {
	if len(reps) == 0 {
		return nil, errors.New("storage: replicated target needs at least one replica")
	}
	erasureMode := cfg.DataShards != 0 || cfg.ParityShards != 0
	if erasureMode {
		if cfg.DataShards < 1 || cfg.ParityShards < 1 {
			return nil, fmt.Errorf("storage: erasure geometry %d+%d needs k>=1, m>=1",
				cfg.DataShards, cfg.ParityShards)
		}
		if n := cfg.DataShards + cfg.ParityShards; n != len(reps) {
			return nil, fmt.Errorf("storage: erasure geometry %d+%d needs exactly %d replicas, have %d",
				cfg.DataShards, cfg.ParityShards, n, len(reps))
		}
	}
	if cfg.Quorum == 0 {
		if erasureMode {
			cfg.Quorum = cfg.DataShards + 1
		} else {
			cfg.Quorum = 2
		}
		if cfg.Quorum > len(reps) {
			cfg.Quorum = len(reps)
		}
	}
	if cfg.Quorum < 1 || cfg.Quorum > len(reps) {
		return nil, fmt.Errorf("storage: write quorum %d out of range 1..%d", cfg.Quorum, len(reps))
	}
	if erasureMode && cfg.Quorum < cfg.DataShards {
		return nil, fmt.Errorf("storage: erasure write quorum %d below k=%d cannot guarantee a decodable ack",
			cfg.Quorum, cfg.DataShards)
	}
	if cfg.Counters == nil {
		cfg.Counters = trace.NewCounters()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = trace.NewMetricsWith(cfg.Counters)
	}
	return &Replicated{name: name, reps: reps, cfg: cfg}, nil
}

// Erasure reports whether the target shards rather than mirrors, with
// its geometry.
func (r *Replicated) Erasure() (k, m int, on bool) {
	return r.cfg.DataShards, r.cfg.ParityShards, r.cfg.DataShards != 0
}

// Quorum returns the configured write quorum.
func (r *Replicated) Quorum() int { return r.cfg.Quorum }

// Replicas returns the placement set (shared slice; do not mutate).
func (r *Replicated) Replicas() []Replica { return r.reps }

// Name implements Target.
func (r *Replicated) Name() string { return r.name }

// Kind implements Target.
func (r *Replicated) Kind() Kind { return KindReplicated }

// Available implements Target: the set can take a quorum write.
func (r *Replicated) Available() bool {
	up := 0
	for _, rep := range r.reps {
		if rep.T.Available() {
			up++
		}
	}
	return up >= r.cfg.Quorum
}

// fanEnv gives one replica of a parallel fan-out its own wait
// accumulator; the caller charges the maximum across replicas — the
// fan-out completes when the slowest member does, not after the sum.
type fanEnv struct {
	env  *Env
	wait simtime.Duration
}

func newFanEnv(bill *Env) *fanEnv {
	f := &fanEnv{}
	f.env = &Env{Bill: orNop(bill).Bill, Wait: func(d simtime.Duration, _ string) { f.wait += d }}
	return f
}

// Create implements Target. The writer keeps what it is handed and fans
// out at Commit: erasure coding needs the whole payload before it can cut
// shards, and deferring the member Creates keeps a crashed caller from
// littering every replica with empty staging objects. Quorum is judged
// at the durability points (Commit, Publish), not here — a set that
// degrades mid-write should fail with the quorum verdict, not a
// spurious availability error at open time.
func (r *Replicated) Create(object string, env *Env) (Writer, error) {
	return &replWriter{r: r, object: object, env: orNop(env)}, nil
}

type replWriter struct {
	r      *Replicated
	object string
	env    *Env
	buf    []byte
	done   bool
}

func (w *replWriter) Write(p []byte) (int, error) {
	if w.done {
		return 0, errors.New("storage: write after commit")
	}
	w.buf = own(w.buf, p)
	return len(p), nil
}

func (w *replWriter) Abort() { w.done = true; w.buf = nil }

// Commit fans the buffered payload out to every available replica and
// succeeds when at least quorum of them committed durably. Replica
// writes are modeled as parallel: the caller waits for the slowest
// member, not the sum.
func (w *replWriter) Commit() error {
	if w.done {
		return errors.New("storage: double commit")
	}
	w.done = true
	r := w.r
	payloads, err := r.payloadsFor(w.buf)
	if err != nil {
		return err
	}
	committed := 0
	var maxWait simtime.Duration
	for i, rep := range r.reps {
		if !rep.T.Available() {
			r.cfg.Counters.Inc("repl.write_skipped", 1)
			continue
		}
		f := newFanEnv(w.env)
		// The member target applies its own cost model and fault policy.
		if werr := put(rep.T, w.object, payloads[i], f.env); werr != nil {
			r.cfg.Counters.Inc("repl.write_failed", 1)
			// An injected crash leaves whatever streamed so far on the
			// member under the staging name. Unlike a lone writer's crash,
			// the coordinator is alive and saw the error — scrub the torn
			// object now, or the fan-out Publish below would rename those
			// partial bytes into place on this member.
			_ = rep.T.Delete(w.object)
			continue
		}
		if f.wait > maxWait {
			maxWait = f.wait
		}
		committed++
	}
	w.env.Wait(maxWait, "repl-write")
	if committed < r.cfg.Quorum {
		return fmt.Errorf("%w: %s: %d/%d committed, quorum %d",
			ErrQuorum, r.name, committed, len(r.reps), r.cfg.Quorum)
	}
	return nil
}

// payloadsFor returns the per-replica payloads: the object itself for
// mirrors (one slice shared by every member), or its erasure shards.
func (r *Replicated) payloadsFor(data []byte) ([][]byte, error) {
	if k, m, on := r.Erasure(); on {
		return erasure.EncodeObject(data, k, m)
	}
	out := make([][]byte, len(r.reps))
	for i := range out {
		out[i] = data
	}
	return out, nil
}

// Publish implements Target: the quorum commit point. Every replica
// attempts its atomic rename (fence-wrapped members enforce the epoch
// here); success needs at least quorum renames. Any fenced member wins
// over a numeric quorum — the write belongs to a superseded incarnation
// and must not be acknowledged, and looping every member first lets each
// fence clean its own stale staging object. The members' fence domains
// are held for the whole call, so a concurrent epoch advance fences all
// of the members or none of them.
func (r *Replicated) Publish(staging, final string, env *Env) error {
	env = orNop(env)
	ok, fenced := 0, false
	var firstErr error
	var maxWait simtime.Duration
	defer holdFences(r.reps)()
	for _, rep := range r.reps {
		f := newFanEnv(env)
		err := rep.T.Publish(staging, final, f.env)
		if f.wait > maxWait {
			maxWait = f.wait
		}
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrFenced):
			fenced = true
		default:
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	env.Wait(maxWait, "repl-publish")
	if fenced {
		r.cfg.Counters.Inc("repl.publish_fenced", 1)
		return fmt.Errorf("%w: %s", ErrFenced, r.name)
	}
	if ok < r.cfg.Quorum {
		r.cfg.Counters.Inc("repl.quorum_failed", 1)
		if firstErr != nil {
			return fmt.Errorf("%w: %s: %d/%d published, quorum %d (first failure: %v)",
				ErrQuorum, r.name, ok, len(r.reps), r.cfg.Quorum, firstErr)
		}
		return fmt.Errorf("%w: %s: %d/%d published, quorum %d",
			ErrQuorum, r.name, ok, len(r.reps), r.cfg.Quorum)
	}
	r.cfg.Counters.Inc("repl.publishes", 1)
	if ok < len(r.reps) {
		// Acknowledged but degraded: background re-replication owes the
		// missing members a copy.
		r.cfg.Counters.Inc("repl.partial_publish", 1)
	}
	return nil
}

// ReadObject implements Target: the degraded-read ladder. Mirrors walk
// the replicas in placement order (local, buddies, remote) and the first
// copy wins; erasure sets read all surviving shards in parallel and
// decode. Every read observes its source class into repl.read_source.
func (r *Replicated) ReadObject(object string, env *Env) ([]byte, error) {
	env = orNop(env)
	if _, _, on := r.Erasure(); on {
		return readErasure(r, object, env, erasure.DecodeAny)
	}
	sawNotFound := false
	for _, rep := range r.reps {
		if !rep.T.Available() {
			continue
		}
		data, err := rep.T.ReadObject(object, env)
		if err == nil {
			r.observeRead(roleSource(rep.Role))
			return data, nil
		}
		if errors.Is(err, ErrNotFound) {
			sawNotFound = true
		}
	}
	r.cfg.Counters.Inc("repl.read_failed", 1)
	if sawNotFound {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, r.name, object)
	}
	return nil, fmt.Errorf("%w: %s", ErrTargetUnavailable, r.name)
}

func roleSource(role ReplicaRole) int {
	switch role {
	case RoleLocal:
		return ReadSourceLocal
	case RoleBuddy:
		return ReadSourceBuddy
	case RoleRemote:
		return ReadSourceRemote
	}
	return ReadSourceShards
}

func (r *Replicated) observeRead(source int) {
	r.cfg.Metrics.Hist("repl.read_source").Observe(float64(source))
	switch source {
	case ReadSourceLocal:
		r.cfg.Counters.Inc("repl.read_local", 1)
	case ReadSourceBuddy:
		r.cfg.Counters.Inc("repl.read_buddy", 1)
	case ReadSourceShards:
		r.cfg.Counters.Inc("repl.read_shards", 1)
	case ReadSourceReconstruct:
		r.cfg.Counters.Inc("repl.read_reconstruct", 1)
	case ReadSourceRemote:
		r.cfg.Counters.Inc("repl.read_remote", 1)
	}
}

// readErasure gathers surviving shards in parallel (max-wait accounting)
// and decodes them with dec, erasure.DecodeAny for the joined object or
// erasure.DecodePlanes for its planes, so both forms of a read make the
// same member reads, charge the same waits and count the same way. The
// source is the decoder's own verdict: "shards" means the k shards it
// used were the data shards and the decode was a straight
// concatenation; "reconstruct" means a parity shard stood in and a
// solve happened.
func readErasure[T any](r *Replicated, object string, env *Env, dec func([][]byte) (T, bool, error)) (T, error) {
	var none T
	blobs := make([][]byte, len(r.reps))
	var maxWait simtime.Duration
	sawNotFound, sawDown := false, false
	for i, rep := range r.reps {
		if !rep.T.Available() {
			sawDown = true
			continue
		}
		f := newFanEnv(env)
		data, err := rep.T.ReadObject(object, f.env)
		if f.wait > maxWait {
			maxWait = f.wait
		}
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				sawNotFound = true
			}
			continue
		}
		blobs[i] = data
	}
	env.Wait(maxWait, "repl-shard-read")
	// DecodeAny, not DecodeObject: a partially-landed re-encode under
	// this name (a chain fold that missed a member) leaves one stale
	// shard in the gather, and the strict decode would refuse the k good
	// ones alongside it. DecodePlanes picks its group the same way.
	out, solved, err := dec(blobs)
	if err != nil {
		r.cfg.Counters.Inc("repl.read_failed", 1)
		if sawDown {
			return none, fmt.Errorf("%w: %s (%v)", ErrTargetUnavailable, r.name, err)
		}
		if sawNotFound {
			return none, fmt.Errorf("%w: %s/%s", ErrNotFound, r.name, object)
		}
		return none, fmt.Errorf("storage: %s/%s: %w", r.name, object, err)
	}
	// The decode itself is in-memory; the time is the shard transfers,
	// already charged above.
	if solved {
		r.observeRead(ReadSourceReconstruct)
	} else {
		r.observeRead(ReadSourceShards)
	}
	return out, nil
}

// ReadBatch implements BatchReader. Mirrors forward the whole batch to
// the first replica that can serve it (keeping the one-seek fast path);
// erasure sets decode object by object.
func (r *Replicated) ReadBatch(objects []string, env *Env) ([][]byte, error) {
	env = orNop(env)
	if _, _, on := r.Erasure(); !on {
		for _, rep := range r.reps {
			br, ok := rep.T.(BatchReader)
			if !ok || !rep.T.Available() {
				continue
			}
			out, err := br.ReadBatch(objects, env)
			if err == nil {
				for range objects {
					r.observeRead(roleSource(rep.Role))
				}
				return out, nil
			}
		}
	}
	out := make([][]byte, len(objects))
	for i, name := range objects {
		data, err := r.ReadObject(name, env)
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}

// ReadPieces implements PieceReader. A mirror set serves ReadBatch's
// result, one piece per object. An erasure set reads each object as
// ReadObject does and returns its data planes unjoined: a plane whose
// shard was read is that shard's stored payload, shared read-only.
func (r *Replicated) ReadPieces(objects []string, env *Env) ([][][]byte, error) {
	env = orNop(env)
	out := make([][][]byte, len(objects))
	if _, _, on := r.Erasure(); !on {
		blobs, err := r.ReadBatch(objects, env)
		if err != nil {
			return nil, err
		}
		for i := range blobs {
			out[i] = blobs[i : i+1 : i+1]
		}
		return out, nil
	}
	for i, name := range objects {
		planes, err := readErasure(r, name, env, erasure.DecodePlanes)
		if err != nil {
			return nil, err
		}
		out[i] = planes
	}
	return out, nil
}

// List implements Target: the sorted union over reachable replicas.
func (r *Replicated) List() []string {
	seen := make(map[string]bool)
	for _, rep := range r.reps {
		if !rep.T.Available() {
			continue
		}
		for _, n := range rep.T.List() {
			seen[n] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Delete implements Target. The object is gone only when every replica
// agrees; an unreachable replica keeps the delete pending (typed
// ErrTargetUnavailable) so GC sweeps retry instead of stranding a copy
// that would resurface when the node returns. A fenced member vetoes the
// whole delete — a stale incarnation must not GC the live chain on any
// replica; as in Publish, the fence domains are held for the whole call.
func (r *Replicated) Delete(object string) error {
	found, down, fenced := false, false, false
	defer holdFences(r.reps)()
	for _, rep := range r.reps {
		err := rep.T.Delete(object)
		switch {
		case err == nil:
			found = true
		case errors.Is(err, ErrFenced):
			fenced = true
		case errors.Is(err, ErrTargetUnavailable):
			down = true
		}
	}
	switch {
	case fenced:
		return fmt.Errorf("%w: %s", ErrFenced, r.name)
	case down:
		return fmt.Errorf("%w: %s", ErrTargetUnavailable, r.name)
	case found:
		return nil
	}
	return fmt.Errorf("%w: %s/%s", ErrNotFound, r.name, object)
}

// ObjectSize implements Target. Mirrors report the first replica's
// answer. Erasure sets require a decodable object — k distinct shards of
// one encoding, the group a read would decode — and report that
// encoding's original length, so the delta-chain parent check ("is my
// parent durable here?") means restorable, not merely present
// somewhere: a stale shard of an older encoding under the same name
// neither counts toward k nor lends its length.
func (r *Replicated) ObjectSize(object string) (int, error) {
	if _, _, on := r.Erasure(); !on {
		sawNotFound := false
		for _, rep := range r.reps {
			if !rep.T.Available() {
				continue
			}
			n, err := rep.T.ObjectSize(object)
			if err == nil {
				return n, nil
			}
			if errors.Is(err, ErrNotFound) {
				sawNotFound = true
			}
		}
		if sawNotFound {
			return 0, fmt.Errorf("%w: %s/%s", ErrNotFound, r.name, object)
		}
		return 0, fmt.Errorf("%w: %s", ErrTargetUnavailable, r.name)
	}
	blobs := make([][]byte, len(r.reps))
	sawAny, sawDown := false, false
	for i, rep := range r.reps {
		if !rep.T.Available() {
			sawDown = true
			continue
		}
		data, err := rep.T.ReadObject(object, nil)
		if err != nil {
			continue
		}
		sawAny = true
		blobs[i] = data
	}
	g, err := erasure.BestGroup(blobs)
	if err == nil {
		return g.OrigLen, nil
	}
	if sawDown && !sawAny {
		return 0, fmt.Errorf("%w: %s", ErrTargetUnavailable, r.name)
	}
	return 0, fmt.Errorf("%w: %s/%s (%v)", ErrNotFound, r.name, object, err)
}

// Repair restores full redundancy for one object: mirrors copy the
// surviving version onto every reachable replica missing it; erasure
// sets reconstruct the full shard set and rewrite any missing or
// corrupt shard. Returns how many replicas were repaired. Repair runs
// through the same (fence-wrapped) members as writes, so a stale
// repairer is rejected at each replica's commit point.
func (r *Replicated) Repair(object string, env *Env) (int, error) {
	return r.RepairSized(object, 0, env)
}

// RepairSized is Repair with the authoritative encoded length, when the
// caller knows it (the supervisor records each live-chain object's size
// at ack and fold time). A non-zero want upgrades the sweep from
// presence to identity: a member holding the WRONG bytes under the name
// — the stale pre-fold leaf a quorum publish skipped past — is detected
// by its size and rewritten from a member holding the right ones.
// Without this, a fold that reached quorum but not every member leaves a
// divergent replica whose ancestry the GC has already reclaimed: a
// degraded restore through it would walk into deleted objects.
func (r *Replicated) RepairSized(object string, want int, env *Env) (int, error) {
	env = orNop(env)
	if _, _, on := r.Erasure(); on {
		return r.repairErasure(object, want, env)
	}
	data, err := r.readExact(object, want, env)
	if err != nil {
		return 0, err
	}
	repaired := 0
	for _, rep := range r.reps {
		if !rep.T.Available() {
			continue
		}
		if n, serr := rep.T.ObjectSize(object); serr == nil && (want <= 0 || n == want) {
			continue
		}
		if werr := Write(rep.T, object, data, WriteOptions{Atomic: true, Env: env}); werr != nil {
			return repaired, werr
		}
		repaired++
	}
	r.cfg.Counters.Inc("repl.repaired", int64(repaired))
	return repaired, nil
}

// readExact reads a mirror copy of the expected length — the repair
// source must be the current version, not whichever replica answers
// first. With no expectation it is the plain degraded-read ladder.
func (r *Replicated) readExact(object string, want int, env *Env) ([]byte, error) {
	if want <= 0 {
		return r.ReadObject(object, env)
	}
	sawAny := false
	for _, rep := range r.reps {
		if !rep.T.Available() {
			continue
		}
		data, err := rep.T.ReadObject(object, env)
		if err != nil {
			continue
		}
		sawAny = true
		if len(data) == want {
			r.observeRead(roleSource(rep.Role))
			return data, nil
		}
	}
	r.cfg.Counters.Inc("repl.read_failed", 1)
	if sawAny {
		return nil, fmt.Errorf("storage: %s/%s: no replica holds the expected %d bytes", r.name, object, want)
	}
	return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, r.name, object)
}

func (r *Replicated) repairErasure(object string, want int, env *Env) (int, error) {
	healthy := func(b []byte, slot int) bool {
		s, perr := erasure.ParseShard(b)
		return perr == nil && s.Index == slot && (want <= 0 || s.OrigLen == want)
	}
	blobs := make([][]byte, len(r.reps))
	for i, rep := range r.reps {
		if !rep.T.Available() {
			continue
		}
		if data, err := rep.T.ReadObject(object, env); err == nil {
			// A stale shard (wrong original length) must not feed the
			// reconstruction: mixing encodings is exactly the divergence
			// this repair exists to erase.
			if s, perr := erasure.ParseShard(data); perr == nil && (want <= 0 || s.OrigLen == want) {
				blobs[i] = data
			}
		}
	}
	rebuilt, err := erasure.ReconstructShards(blobs)
	if err != nil {
		return 0, fmt.Errorf("storage: repair %s/%s: %w", r.name, object, err)
	}
	repaired := 0
	for i, rep := range r.reps {
		if !rep.T.Available() {
			continue
		}
		if blobs[i] != nil && healthy(blobs[i], i) {
			continue // current-version shard in the right slot
		}
		if werr := Write(rep.T, object, rebuilt[i], WriteOptions{Atomic: true, Env: env}); werr != nil {
			return repaired, werr
		}
		repaired++
	}
	r.cfg.Counters.Inc("repl.repaired", int64(repaired))
	return repaired, nil
}
