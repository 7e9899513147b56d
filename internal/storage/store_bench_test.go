package storage

import (
	"fmt"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/simtime"
)

// benchStores returns a local disk and a remote client, each with an
// Env that sums its waits (so the accounting path runs as it does under
// a kernel, without a ledger's map).
func benchStores() (map[string]Target, *Env) {
	cm := costmodel.Default2005()
	var waited simtime.Duration
	env := &Env{Bill: costmodel.Discard{}, Wait: func(d simtime.Duration, _ string) { waited += d }}
	return map[string]Target{
		"local":  NewLocal("disk0", cm, nil),
		"remote": NewRemote("net0", NewServer("srv", cm)),
	}, env
}

// BenchmarkStoreWrite measures the host cost of one atomic 4 MiB write
// (create, stream, commit, publish) per target kind.
func BenchmarkStoreWrite(b *testing.B) {
	stores, env := benchStores()
	data := payload(4 << 20)
	for _, kind := range []string{"local", "remote"} {
		t := stores[kind]
		b.Run(kind, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Write(t, "img", data, WriteOptions{Atomic: true, Env: env}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreReadBatch measures the host cost of reading a 4 MiB
// chain (one full image and seven deltas of 512 KiB) in one batch.
func BenchmarkStoreReadBatch(b *testing.B) {
	stores, env := benchStores()
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("link-%d", i)
	}
	for _, kind := range []string{"local", "remote"} {
		t := stores[kind]
		for _, name := range names {
			if err := Write(t, name, payload(512<<10), WriteOptions{Atomic: true}); err != nil {
				b.Fatal(err)
			}
		}
		br := t.(BatchReader)
		b.Run(kind, func(b *testing.B) {
			b.SetBytes(4 << 20)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := br.ReadBatch(names, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// replicatedSets returns the two placements the cluster builds: a buddy
// mirror (the owner's disk plus a buddy disk reached over the wire) and
// 2+1 erasure over three local disks.
func replicatedSets(tb testing.TB) map[string]*Replicated {
	cm := costmodel.Default2005()
	mirror, err := NewReplicated("mirror", []Replica{
		{T: NewLocal("self", cm, nil), Role: RoleLocal},
		{T: OverWire(NewLocal("buddy", cm, nil), cm), Role: RoleBuddy},
	}, ReplicatedConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	var shards []Replica
	for i := 0; i < 3; i++ {
		shards = append(shards, Replica{T: NewLocal(fmt.Sprintf("d%d", i), cm, nil), Role: RoleShard})
	}
	ec, err := NewReplicated("ec", shards, ReplicatedConfig{DataShards: 2, ParityShards: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*Replicated{"mirror": mirror, "erasure": ec}
}

// BenchmarkReplicatedWrite measures the host cost of one atomic 4 MiB
// write through a replicated set: staging, the member fan-out and the
// quorum publish.
func BenchmarkReplicatedWrite(b *testing.B) {
	sets := replicatedSets(b)
	_, env := benchStores()
	data := payload(4 << 20)
	for _, name := range []string{"mirror", "erasure"} {
		r := sets[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Write(r, "img", data, WriteOptions{Atomic: true, Env: env}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplicatedRead measures the host cost of reading a 4 MiB
// object back: the mirror serves it from the owner's disk, the erasure
// set gathers three shards and decodes.
func BenchmarkReplicatedRead(b *testing.B) {
	sets := replicatedSets(b)
	_, env := benchStores()
	for _, name := range []string{"mirror", "erasure"} {
		r := sets[name]
		if err := Write(r, "img", payload(4<<20), WriteOptions{Atomic: true}); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(4 << 20)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.ReadObject("img", env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
