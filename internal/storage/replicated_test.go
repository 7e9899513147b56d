package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/storage/erasure"
	"repro/internal/trace"
)

// mirrorSet builds a buddy-style placement: owner disk, one buddy disk
// over the wire, and the shared server — each with its own liveness
// switch.
func mirrorSet(t *testing.T) (reps []Replica, disks []*Local, up []*bool) {
	t.Helper()
	cm := costmodel.Default2005()
	up = make([]*bool, 3)
	for i := range up {
		b := true
		up[i] = &b
	}
	d0 := NewLocal("self", cm, func() bool { return *up[0] })
	d1 := NewLocal("buddy", cm, func() bool { return *up[1] })
	srv := NewServer("srv", cm)
	disks = []*Local{d0, d1}
	reps = []Replica{
		{T: d0, Role: RoleLocal},
		{T: OverWire(d1, cm), Role: RoleBuddy},
		{T: NewRemote("net", srv), Role: RoleRemote},
	}
	return reps, disks, up
}

// TestReplicatedMirrorWriteLandsEverywhere: a healthy quorum-2 write
// publishes the identical object on every replica.
func TestReplicatedMirrorWriteLandsEverywhere(t *testing.T) {
	reps, disks, _ := mirrorSet(t)
	r, err := NewReplicated("repl", reps, ReplicatedConfig{Quorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("checkpoint image")
	if err := Write(r, "img", payload, WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	for i, d := range disks {
		got, err := d.ReadObject("img", nil)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("disk %d: %v %q", i, err, got)
		}
	}
	got, err := reps[2].T.ReadObject("img", nil)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("server copy: %v", err)
	}
	if n := r.cfg.Counters.Get("repl.publishes"); n != 1 {
		t.Fatalf("repl.publishes = %d", n)
	}
}

// TestReplicatedQuorumAckWithOneReplicaDown: losing one member still
// acks at quorum 2 and counts the degraded publish; losing two drops
// below quorum and the write must fail typed.
func TestReplicatedQuorumAckWithOneReplicaDown(t *testing.T) {
	reps, _, up := mirrorSet(t)
	r, err := NewReplicated("repl", reps, ReplicatedConfig{Quorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	*up[1] = false // buddy down
	if err := Write(r, "img", []byte("x"), WriteOptions{Atomic: true}); err != nil {
		t.Fatalf("quorum-2 write with one member down: %v", err)
	}
	if n := r.cfg.Counters.Get("repl.partial_publish"); n != 1 {
		t.Fatalf("repl.partial_publish = %d", n)
	}
	srv := reps[2].T.(*Store).srv
	srv.Fail() // server down too: only the owner disk remains
	err = Write(r, "img2", []byte("y"), WriteOptions{Atomic: true})
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("below-quorum write err = %v, want ErrQuorum", err)
	}
	if _, rerr := r.reps[0].T.ReadObject("img2", nil); !errors.Is(rerr, ErrNotFound) {
		t.Fatalf("below-quorum write must not publish anywhere: %v", rerr)
	}
}

// TestReplicatedDegradedReadLadder: reads prefer local, fall to the
// buddy when the owner disk dies, and to the server when both disks are
// gone — each step observed in the read-source histogram.
func TestReplicatedDegradedReadLadder(t *testing.T) {
	reps, _, up := mirrorSet(t)
	m := trace.NewMetrics()
	r, err := NewReplicated("repl", reps, ReplicatedConfig{Quorum: 2, Counters: m.Counters, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("ladder")
	if err := Write(r, "img", payload, WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		kill int // index into up, -1 = nothing
		ctr  string
	}{
		{-1, "repl.read_local"},
		{0, "repl.read_buddy"},
		{1, "repl.read_remote"},
	}
	for _, st := range steps {
		if st.kill >= 0 {
			*up[st.kill] = false
		}
		got, err := r.ReadObject("img", nil)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: %v", st.ctr, err)
		}
		if n := m.Counters.Get(st.ctr); n != 1 {
			t.Fatalf("%s = %d, want 1", st.ctr, n)
		}
	}
	if n := m.Hist("repl.read_source").N(); n != 3 {
		t.Fatalf("read_source observations = %d, want 3", n)
	}
}

// TestReplicatedErasureReadAndReconstruct: a 2+1 erasure set decodes
// without a solve while the data shards live, reconstructs from parity
// when one dies, and fails typed when two are gone.
func TestReplicatedErasureReadAndReconstruct(t *testing.T) {
	cm := costmodel.Default2005()
	up := []bool{true, true, true}
	var reps []Replica
	var disks []*Local
	for i := range up {
		i := i
		d := NewLocal(fmt.Sprintf("d%d", i), cm, func() bool { return up[i] })
		disks = append(disks, d)
		reps = append(reps, Replica{T: d, Role: RoleShard})
	}
	m := trace.NewMetrics()
	r, err := NewReplicated("ec", reps, ReplicatedConfig{
		DataShards: 2, ParityShards: 1, Counters: m.Counters, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if q := r.Quorum(); q != 3 {
		t.Fatalf("default erasure quorum = %d, want k+1=3", q)
	}
	payload := bytes.Repeat([]byte("erasure checkpoint "), 100)
	if err := Write(r, "img", payload, WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	// Every slot holds its own shard, not the object.
	for i, d := range disks {
		blob, err := d.ReadObject("img", nil)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		s, err := erasure.ParseShard(blob)
		if err != nil || s.Index != i {
			t.Fatalf("slot %d holds shard %+v err=%v", i, s, err)
		}
	}
	got, err := r.ReadObject("img", nil)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("healthy decode: %v", err)
	}
	if n := m.Counters.Get("repl.read_shards"); n != 1 {
		t.Fatalf("repl.read_shards = %d", n)
	}
	up[0] = false // lose a data shard: parity solve
	got, err = r.ReadObject("img", nil)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("degraded decode: %v", err)
	}
	if n := m.Counters.Get("repl.read_reconstruct"); n != 1 {
		t.Fatalf("repl.read_reconstruct = %d", n)
	}
	up[1] = false // below k survivors
	if _, err := r.ReadObject("img", nil); !errors.Is(err, ErrTargetUnavailable) {
		t.Fatalf("sub-k read err = %v, want ErrTargetUnavailable", err)
	}
}

// TestReplicatedErasureReadSourceTable: the read-source class comes from
// the decoder's own solve verdict. Reads decoded from the data shards
// alone count repl.read_shards; reads that needed parity count
// repl.read_reconstruct — exactly one count and one histogram
// observation per read, for single reads and batched ones alike.
func TestReplicatedErasureReadSourceTable(t *testing.T) {
	cases := []struct {
		name   string
		down   int // slot taken offline before reading, -1 = none
		ctr    string
		source int
	}{
		{"all members up", -1, "repl.read_shards", ReadSourceShards},
		{"parity slot down", 2, "repl.read_shards", ReadSourceShards},
		{"slot 0 down", 0, "repl.read_reconstruct", ReadSourceReconstruct},
		{"slot 1 down", 1, "repl.read_reconstruct", ReadSourceReconstruct},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cm := costmodel.Default2005()
			up := []bool{true, true, true}
			var reps []Replica
			for i := range up {
				i := i
				reps = append(reps, Replica{
					T:    NewLocal(fmt.Sprintf("d%d", i), cm, func() bool { return up[i] }),
					Role: RoleShard,
				})
			}
			m := trace.NewMetrics()
			r, err := NewReplicated("ec", reps, ReplicatedConfig{
				DataShards: 2, ParityShards: 1, Counters: m.Counters, Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			payloads := map[string][]byte{
				"a": bytes.Repeat([]byte("shard source "), 257),
				"b": bytes.Repeat([]byte{0xEE}, 4097),
			}
			for name, p := range payloads {
				if err := Write(r, name, p, WriteOptions{Atomic: true}); err != nil {
					t.Fatal(err)
				}
			}
			if tc.down >= 0 {
				up[tc.down] = false
			}
			const reads = 3
			for i := 0; i < reads; i++ {
				got, err := r.ReadObject("a", nil)
				if err != nil || !bytes.Equal(got, payloads["a"]) {
					t.Fatalf("read %d: %v", i, err)
				}
			}
			batch, err := r.ReadBatch([]string{"a", "b"}, nil)
			if err != nil || !bytes.Equal(batch[0], payloads["a"]) || !bytes.Equal(batch[1], payloads["b"]) {
				t.Fatalf("batch read: %v", err)
			}
			const total = reads + 2
			if n := m.Counters.Get(tc.ctr); n != total {
				t.Fatalf("%s = %d, want %d", tc.ctr, n, total)
			}
			other := "repl.read_reconstruct"
			if tc.ctr == other {
				other = "repl.read_shards"
			}
			if n := m.Counters.Get(other); n != 0 {
				t.Fatalf("%s = %d, want 0", other, n)
			}
			snap := m.Hist("repl.read_source").Snapshot()
			if snap.N != total || snap.Min != float64(tc.source) || snap.Max != float64(tc.source) {
				t.Fatalf("repl.read_source = %v, want %d observations of %d", snap, total, tc.source)
			}
		})
	}
}

// TestReplicatedObjectSizeErasure: the parent-durability probe reports
// the original length and requires a decodable (>= k shards) object.
func TestReplicatedObjectSizeErasure(t *testing.T) {
	cm := costmodel.Default2005()
	var reps []Replica
	var disks []*Local
	for i := 0; i < 3; i++ {
		d := NewLocal(fmt.Sprintf("d%d", i), cm, nil)
		disks = append(disks, d)
		reps = append(reps, Replica{T: d, Role: RoleShard})
	}
	r, err := NewReplicated("ec", reps, ReplicatedConfig{DataShards: 2, ParityShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 999)
	if err := Write(r, "img", payload, WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	n, err := r.ObjectSize("img")
	if err != nil || n != len(payload) {
		t.Fatalf("ObjectSize = %d, %v", n, err)
	}
	// Strip shards below k: the object is no longer durable here.
	_ = disks[0].Delete("img")
	_ = disks[1].Delete("img")
	if _, err := r.ObjectSize("img"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("sub-k ObjectSize err = %v, want ErrNotFound", err)
	}
}

// TestReplicatedDeleteSemantics: deletes with a member down stay
// pending (typed unavailable), so GC retries; with all members up the
// object disappears everywhere.
func TestReplicatedDeleteSemantics(t *testing.T) {
	reps, disks, up := mirrorSet(t)
	r, err := NewReplicated("repl", reps, ReplicatedConfig{Quorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(r, "img", []byte("x"), WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	*up[1] = false
	if err := r.Delete("img"); !errors.Is(err, ErrTargetUnavailable) {
		t.Fatalf("delete with member down = %v, want ErrTargetUnavailable", err)
	}
	*up[1] = true
	if err := r.Delete("img"); err != nil {
		t.Fatalf("retried delete: %v", err)
	}
	for i, d := range disks {
		if _, err := d.ReadObject("img", nil); !errors.Is(err, ErrNotFound) {
			t.Fatalf("disk %d still has img: %v", i, err)
		}
	}
	if err := r.Delete("img"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v, want ErrNotFound", err)
	}
}

// TestReplicatedRepairMirror: after losing and replacing a buddy disk,
// Repair re-mirrors the object and counts it.
func TestReplicatedRepairMirror(t *testing.T) {
	reps, disks, _ := mirrorSet(t)
	r, err := NewReplicated("repl", reps, ReplicatedConfig{Quorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("keep me redundant")
	if err := Write(r, "img", payload, WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	disks[1].Wipe() // replacement buddy arrives blank
	n, err := r.Repair("img", nil)
	if err != nil || n != 1 {
		t.Fatalf("Repair = %d, %v", n, err)
	}
	got, err := disks[1].ReadObject("img", nil)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("buddy after repair: %v", err)
	}
	if c := r.cfg.Counters.Get("repl.repaired"); c != 1 {
		t.Fatalf("repl.repaired = %d", c)
	}
	// Nothing left to do: repair is idempotent.
	if n, err := r.Repair("img", nil); err != nil || n != 0 {
		t.Fatalf("idempotent Repair = %d, %v", n, err)
	}
}

// TestReplicatedRepairErasure: a wiped shard slot is rebuilt from the
// survivors with a byte-identical shard.
func TestReplicatedRepairErasure(t *testing.T) {
	cm := costmodel.Default2005()
	var reps []Replica
	var disks []*Local
	for i := 0; i < 4; i++ {
		d := NewLocal(fmt.Sprintf("d%d", i), cm, nil)
		disks = append(disks, d)
		reps = append(reps, Replica{T: d, Role: RoleShard})
	}
	r, err := NewReplicated("ec", reps, ReplicatedConfig{DataShards: 2, ParityShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{9, 8, 7}, 1000)
	if err := Write(r, "img", payload, WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	want, err := disks[3].ReadObject("img", nil)
	if err != nil {
		t.Fatal(err)
	}
	disks[3].Wipe()
	n, err := r.Repair("img", nil)
	if err != nil || n != 1 {
		t.Fatalf("Repair = %d, %v", n, err)
	}
	got, err := disks[3].ReadObject("img", nil)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("rebuilt shard differs: %v", err)
	}
}

// TestReplicatedFencedOnEveryReplica: a stale writer's publish is
// rejected by each fence-wrapped member — none of the replicas keeps the
// stale bytes, and the error surfaces as ErrFenced, not a quorum miss.
func TestReplicatedFencedOnEveryReplica(t *testing.T) {
	reps, disks, _ := mirrorSet(t)
	ctr := trace.NewCounters()
	dom := NewFenceDomain("job", ctr)

	fenceAll := func(epoch uint64) []Replica {
		out := make([]Replica, len(reps))
		for i, rep := range reps {
			out[i] = Replica{T: FencedAt(rep.T, dom, epoch), Role: rep.Role}
		}
		return out
	}
	e1 := dom.Advance()
	r1, err := NewReplicated("repl-e1", fenceAll(e1), ReplicatedConfig{Quorum: 2, Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(r1, "img", []byte("epoch-1"), WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}

	e2 := dom.Advance()
	r2, err := NewReplicated("repl-e2", fenceAll(e2), ReplicatedConfig{Quorum: 2, Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(r2, "img", []byte("epoch-2"), WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}

	// The zombie incarnation tries again: every member fences it.
	err = Write(r1, "img", []byte("stale"), WriteOptions{Atomic: true})
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("stale replicated publish = %v, want ErrFenced", err)
	}
	if got := ctr.Get("fence.rejected"); got != int64(len(reps)) {
		t.Fatalf("fence.rejected = %d, want %d (one per replica)", got, len(reps))
	}
	for i, d := range disks {
		data, err := d.ReadObject("img", nil)
		if err != nil || string(data) != "epoch-2" {
			t.Fatalf("disk %d after stale publish: %q %v", i, data, err)
		}
		for _, obj := range d.List() {
			if IsStaging(obj) {
				t.Fatalf("disk %d kept stale staging debris %q", i, obj)
			}
		}
	}
}

// TestReplicatedReadBatchMirror: the chain-manifest fast path forwards
// the whole batch to one surviving replica.
func TestReplicatedReadBatchMirror(t *testing.T) {
	reps, _, up := mirrorSet(t)
	r, err := NewReplicated("repl", reps, ReplicatedConfig{Quorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := 0; i < 3; i++ {
		n := fmt.Sprintf("img-%d", i)
		if err := Write(r, n, []byte{byte(i)}, WriteOptions{Atomic: true}); err != nil {
			t.Fatal(err)
		}
		names = append(names, n)
	}
	*up[0] = false // owner gone: batch must come off the buddy
	out, err := r.ReadBatch(names, nil)
	if err != nil || len(out) != 3 {
		t.Fatalf("ReadBatch: %v", err)
	}
	for i, b := range out {
		if len(b) != 1 || b[0] != byte(i) {
			t.Fatalf("batch[%d] = %v", i, b)
		}
	}
}

// TestWriteBatchCrashLeavesNoDebris is the partial-failure accounting
// satellite: when a mid-batch staging write crashes, the returned count
// must match what is actually readable and no staging debris may stay
// behind (the crashed item's torn staging object included).
func TestWriteBatchCrashLeavesNoDebris(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		l := NewLocal("d", costmodel.Default2005(), nil)
		l.SetFaults(&FaultPolicy{WriteFault: 0.4, Rng: rand.New(rand.NewSource(seed))})
		items := []BatchItem{
			{Object: "a", Data: bytes.Repeat([]byte{1}, 100)},
			{Object: "b", Parent: "a", Data: bytes.Repeat([]byte{2}, 100)},
			{Object: "c", Parent: "b", Data: bytes.Repeat([]byte{3}, 100)},
		}
		published, err := WriteBatch(l, items, nil)
		if err == nil {
			continue // no fault drawn this seed
		}
		readable := 0
		for _, it := range items {
			if _, rerr := l.ReadObject(it.Object, nil); rerr == nil {
				readable++
			}
		}
		if readable != published {
			t.Fatalf("seed %d: published=%d but %d readable", seed, published, readable)
		}
		for _, obj := range l.List() {
			if IsStaging(obj) {
				t.Fatalf("seed %d: staging debris %q after failed batch", seed, obj)
			}
		}
	}
}

// TestWriteBatchPublishFaultCountsPrefix: an injected publish fault
// mid-batch returns exactly the published prefix.
func TestWriteBatchPublishFaultCountsPrefix(t *testing.T) {
	hit := false
	for seed := int64(0); seed < 200 && !hit; seed++ {
		l := NewLocal("d", costmodel.Default2005(), nil)
		l.SetFaults(&FaultPolicy{PublishFault: 0.5, Rng: rand.New(rand.NewSource(seed))})
		items := []BatchItem{
			{Object: "a", Data: []byte("aa")},
			{Object: "b", Data: []byte("bb")},
			{Object: "c", Data: []byte("cc")},
		}
		published, err := WriteBatch(l, items, nil)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrFault) {
			t.Fatalf("seed %d: err = %v", seed, err)
		}
		if published > 0 {
			hit = true
		}
		readable := 0
		for _, it := range items {
			if _, rerr := l.ReadObject(it.Object, nil); rerr == nil {
				readable++
			}
		}
		if readable != published {
			t.Fatalf("seed %d: published=%d but %d readable", seed, published, readable)
		}
		for _, obj := range l.List() {
			if IsStaging(obj) {
				t.Fatalf("seed %d: staging debris %q", seed, obj)
			}
		}
	}
	if !hit {
		t.Fatal("no seed produced a mid-batch publish fault with a nonzero prefix")
	}
}

// TestReplicatedCrashedMemberNeverPublishesTornBytes: a member whose
// commit crashes mid-stream leaves torn bytes under the staging name;
// the coordinator must scrub them so the fan-out Publish cannot rename
// partial data into place. Regression: chaos seed 14 surfaced a buddy
// disk holding a checksum-failing copy under an acked final name.
func TestReplicatedCrashedMemberNeverPublishesTornBytes(t *testing.T) {
	reps, disks, _ := mirrorSet(t)
	// Rig the buddy disk to crash every write; owner and server stay
	// healthy, so quorum 2 still acks.
	disks[1].SetFaults(&FaultPolicy{WriteFault: 1.0, Rng: rand.New(rand.NewSource(1))})
	r, err := NewReplicated("repl", reps, ReplicatedConfig{Quorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("intact checkpoint image "), 64)
	if err := Write(r, "img", payload, WriteOptions{Atomic: true}); err != nil {
		t.Fatalf("quorum write should survive one crashing member: %v", err)
	}
	if got, err := disks[1].ReadObject("img", nil); err == nil {
		if !bytes.Equal(got, payload) {
			t.Fatalf("buddy published torn bytes: %d of %d", len(got), len(payload))
		}
		t.Fatalf("buddy committed despite a rigged crash")
	}
	// Nothing torn lingers in staging either.
	for _, name := range disks[1].List() {
		t.Fatalf("buddy disk not scrubbed: %s", name)
	}
	if n := r.cfg.Counters.Get("repl.write_failed"); n != 1 {
		t.Fatalf("repl.write_failed = %d", n)
	}
}

// TestRepairSizedHealsStaleMirrorLeaf reproduces the divergence a chain
// fold leaves when its quorum publish misses one member: that member
// keeps the OLD bytes under the leaf's name (the coordinator scrubbed
// its torn staging, so the prior version survives), while GC has already
// reclaimed the old version's ancestors everywhere. A bare presence
// probe calls the slot healthy; RepairSized with the authoritative
// post-fold length sees the size mismatch and rewrites the member from a
// size-matching survivor.
func TestRepairSizedHealsStaleMirrorLeaf(t *testing.T) {
	reps, disks, _ := mirrorSet(t)
	r, err := NewReplicated("repl", reps, ReplicatedConfig{Quorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	stale := []byte("delta: the pre-fold leaf")
	folded := []byte("folded full image, strictly larger than the delta it replaced")
	if err := Write(r, "leaf", folded, WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	// Diverge the buddy behind the coordinator's back.
	if err := Write(disks[1], "leaf", stale, WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	// Presence-only repair is blind to the divergence.
	if n, err := r.Repair("leaf", nil); err != nil || n != 0 {
		t.Fatalf("presence-only repair: n=%d err=%v", n, err)
	}
	if got, _ := disks[1].ReadObject("leaf", nil); !bytes.Equal(got, stale) {
		t.Fatal("presence-only repair unexpectedly rewrote the buddy")
	}
	// Size-aware repair heals it.
	n, err := r.RepairSized("leaf", len(folded), nil)
	if err != nil || n != 1 {
		t.Fatalf("RepairSized: n=%d err=%v", n, err)
	}
	for i, d := range disks {
		if got, rerr := d.ReadObject("leaf", nil); rerr != nil || !bytes.Equal(got, folded) {
			t.Fatalf("disk %d after repair: %v %q", i, rerr, got)
		}
	}
	// No size-matching source anywhere: the repair must fail loudly (the
	// sweep turns that into repl.repair_failed, which excuses the audit).
	if _, err := r.RepairSized("leaf", len(folded)+7, nil); err == nil {
		t.Fatal("RepairSized with an impossible size succeeded")
	}
}

// TestRepairSizedHealsStaleErasureShard: same divergence in shard form —
// one slot still holds a shard of the superseded encoding. The stale
// shard must not feed the reconstruction, and the slot must be rewritten
// with its shard of the current encoding.
func TestRepairSizedHealsStaleErasureShard(t *testing.T) {
	cm := costmodel.Default2005()
	var reps []Replica
	var disks []*Local
	for i := 0; i < 3; i++ {
		d := NewLocal(fmt.Sprintf("n%d", i), cm, nil)
		disks = append(disks, d)
		reps = append(reps, Replica{T: d, Role: RoleShard})
	}
	r, err := NewReplicated("repl", reps, ReplicatedConfig{DataShards: 2, ParityShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte("pre-fold delta "), 40)
	folded := bytes.Repeat([]byte("post-fold full image "), 90)
	if err := Write(r, "leaf", folded, WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	oldShards, err := erasure.EncodeObject(old, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(disks[2], "leaf", oldShards[2], WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	n, err := r.RepairSized("leaf", len(folded), nil)
	if err != nil || n != 1 {
		t.Fatalf("RepairSized: n=%d err=%v", n, err)
	}
	for i, d := range disks {
		blob, rerr := d.ReadObject("leaf", nil)
		if rerr != nil {
			t.Fatalf("disk %d: %v", i, rerr)
		}
		s, perr := erasure.ParseShard(blob)
		if perr != nil || s.Index != i || s.OrigLen != len(folded) {
			t.Fatalf("disk %d holds wrong shard: idx=%d origLen=%d err=%v", i, s.Index, s.OrigLen, perr)
		}
	}
	if got, err := r.ReadObject("leaf", nil); err != nil || !bytes.Equal(got, folded) {
		t.Fatalf("decode after repair: %v", err)
	}
}

// TestReplicatedObjectSizeNeedsOneEncoding: a folded object on a 2+1
// set, with a stale pre-fold shard left in slot 2 and slot 1 lost,
// holds two valid shards but of two encodings — not restorable.
// ObjectSize must say so, as ReadObject does, and a delta naming it as
// parent must not publish.
func TestReplicatedObjectSizeNeedsOneEncoding(t *testing.T) {
	cm := costmodel.Default2005()
	var reps []Replica
	var disks []*Local
	for i := 0; i < 3; i++ {
		d := NewLocal(fmt.Sprintf("n%d", i), cm, nil)
		disks = append(disks, d)
		reps = append(reps, Replica{T: d, Role: RoleShard})
	}
	r, err := NewReplicated("repl", reps, ReplicatedConfig{DataShards: 2, ParityShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte("pre-fold delta "), 40)
	folded := bytes.Repeat([]byte("post-fold full image "), 90)
	if err := Write(r, "leaf", folded, WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	if n, err := r.ObjectSize("leaf"); err != nil || n != len(folded) {
		t.Fatalf("healthy ObjectSize = %d, %v; want %d", n, err, len(folded))
	}
	oldShards, err := erasure.EncodeObject(old, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(disks[2], "leaf", oldShards[2], WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	// Two of one encoding still decode, to the folded length.
	if n, err := r.ObjectSize("leaf"); err != nil || n != len(folded) {
		t.Fatalf("ObjectSize with a stale shard = %d, %v; want %d", n, err, len(folded))
	}
	if err := disks[1].Delete("leaf"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadObject("leaf", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadObject err = %v, want ErrNotFound", err)
	}
	if n, err := r.ObjectSize("leaf"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ObjectSize = %d, %v; want ErrNotFound", n, err)
	}
	err = Write(r, "child", []byte("delta"), WriteOptions{Atomic: true, Parent: "leaf"})
	if !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("delta onto an unrestorable parent: err = %v, want ErrBrokenChain", err)
	}
}
