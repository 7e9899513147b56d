package storage

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// readRecord is what one read charged and counted.
type readRecord struct {
	waits   []string
	ledger  costmodel.Ledger
	metrics trace.MetricsSnapshot
}

// recordingEnv returns an Env that logs every wait and bills a ledger.
func recordingEnv(rec *readRecord) *Env {
	return &Env{Bill: &rec.ledger, Wait: func(d simtime.Duration, what string) {
		rec.waits = append(rec.waits, fmt.Sprintf("%s %d", what, d))
	}}
}

// piecesCase is one placement and member state to read under.
type piecesCase struct {
	name    string
	erasure bool
	// rewrite, when >= 0, re-encodes "a" at a new length while that
	// slot is down, leaving it a stale shard of the old encoding.
	rewrite int
	down    int // slot down while reading, -1 for none
}

// buildPiecesSet builds a 2+1 erasure set (quorum 2, so a write with
// one member down still lands) or a three-member mirror, writes two
// objects through it, applies the case's member states, and returns the
// set, fresh metrics it counts into, and what each object should read.
func buildPiecesSet(t *testing.T, tc piecesCase) (*Replicated, *trace.Metrics, map[string][]byte) {
	t.Helper()
	cm := costmodel.Default2005()
	up := []bool{true, true, true}
	var reps []Replica
	for i := range up {
		i := i
		d := NewLocal(fmt.Sprintf("d%d", i), cm, func() bool { return up[i] })
		role := RoleShard
		if !tc.erasure {
			role = []ReplicaRole{RoleLocal, RoleBuddy, RoleRemote}[i]
		}
		reps = append(reps, Replica{T: d, Role: role})
	}
	m := trace.NewMetrics()
	cfg := ReplicatedConfig{Quorum: 2, Counters: m.Counters, Metrics: m}
	if tc.erasure {
		cfg.DataShards, cfg.ParityShards = 2, 1
	}
	r, err := NewReplicated("set", reps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{
		"a": bytes.Repeat([]byte("pieces of a "), 300),
		"b": bytes.Repeat([]byte{0x5C, 0x11, 0x7}, 1701),
	}
	for _, name := range []string{"a", "b"} {
		if err := Write(r, name, want[name], WriteOptions{Atomic: true}); err != nil {
			t.Fatal(err)
		}
	}
	if tc.rewrite >= 0 {
		up[tc.rewrite] = false
		want["a"] = bytes.Repeat([]byte("re-encoded a "), 400)
		if err := Write(r, "a", want["a"], WriteOptions{Atomic: true}); err != nil {
			t.Fatal(err)
		}
		up[tc.rewrite] = true
	}
	if tc.down >= 0 {
		up[tc.down] = false
	}
	// Start the records at the read: the set-up's writes counted too.
	m = trace.NewMetrics()
	r.cfg.Counters, r.cfg.Metrics = m.Counters, m
	return r, m, want
}

// TestReadPiecesMatchesReadObject: ReadPieces serves, joined, exactly
// what the joined read serves — ReadObject per object on an erasure set,
// ReadBatch on a mirror — and charges the same waits, bills the same
// ledger and bumps the same counters and read-source histogram, healthy,
// degraded and on a gather holding a stale shard of an older encoding,
// whichever slot it sits in.
func TestReadPiecesMatchesReadObject(t *testing.T) {
	names := []string{"a", "b"}
	for _, tc := range []piecesCase{
		{"erasure healthy", true, -1, -1},
		{"erasure data slot down", true, -1, 0},
		{"erasure parity slot down", true, -1, 2},
		{"erasure stale data shard", true, 0, -1},
		{"erasure stale parity shard", true, 2, -1},
		{"mirror healthy", false, -1, -1},
		{"mirror local down", false, -1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var joined, pieced readRecord
			r, m, want := buildPiecesSet(t, tc)
			env := recordingEnv(&joined)
			var got [][]byte
			if tc.erasure {
				for _, name := range names {
					data, err := r.ReadObject(name, env)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, data)
				}
			} else {
				var err error
				if got, err = r.ReadBatch(names, env); err != nil {
					t.Fatal(err)
				}
			}
			joined.metrics = m.Snapshot()

			r, m, _ = buildPiecesSet(t, tc)
			pieces, err := r.ReadPieces(names, recordingEnv(&pieced))
			if err != nil {
				t.Fatal(err)
			}
			pieced.metrics = m.Snapshot()
			for i, name := range names {
				if !bytes.Equal(got[i], want[name]) {
					t.Fatalf("the joined read of %s is not what was written", name)
				}
				if !bytes.Equal(bytes.Join(pieces[i], nil), got[i]) {
					t.Fatalf("ReadPieces of %s, joined, differs from the joined read", name)
				}
			}
			if !reflect.DeepEqual(joined, pieced) {
				t.Fatalf("ReadPieces charged or counted differently:\njoined %+v\npieces %+v", joined, pieced)
			}
			if n := joined.metrics.Counters["repl.read_shards"] + joined.metrics.Counters["repl.read_reconstruct"] +
				joined.metrics.Counters["repl.read_local"] + joined.metrics.Counters["repl.read_buddy"]; n != 2 {
				t.Fatalf("%d reads classified, want 2: %v", n, joined.metrics.Counters)
			}
		})
	}
}

// TestReadPiecesFailsLikeReadBatch: a missing object, or an erasure
// gather whose current encoding has fewer than k shards, fails the whole
// ReadPieces as it fails ReadBatch.
func TestReadPiecesFailsLikeReadBatch(t *testing.T) {
	for _, tc := range []struct {
		piecesCase
		names []string
	}{
		{piecesCase{"erasure missing object", true, -1, -1}, []string{"a", "nope"}},
		{piecesCase{"mirror missing object", false, -1, -1}, []string{"nope", "b"}},
		{piecesCase{"erasure stale shard, other data slot down", true, 0, 1}, []string{"b", "a"}},
	} {
		r, _, _ := buildPiecesSet(t, tc.piecesCase)
		_, wantErr := r.ReadBatch(tc.names, nil)
		if _, err := r.ReadPieces(tc.names, nil); err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: ReadPieces err = %v, ReadBatch err = %v", tc.name, err, wantErr)
		}
	}
}
