// Concurrency suite for the replicated path, meaningful under -race:
// several writers fan out to the same replica set while the fence
// domain's epoch advances underneath them. The properties checked are
// the fence contract's concurrent form — a writer that loses the epoch
// race is rejected on *every* replica, never on just some of them — and
// that the shared stores, fault policies, and counters survive the
// interleavings without data races.

package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/trace"
)

// TestRaceConcurrentReplicaWrites drives many goroutines writing
// distinct objects through one Replicated set concurrently; every
// acknowledged object must be fully mirrored on every replica.
func TestRaceConcurrentReplicaWrites(t *testing.T) {
	cm := costmodel.Default2005()
	d0 := NewLocal("self", cm, nil)
	d1 := NewLocal("buddy", cm, nil)
	srv := NewServer("srv", cm)
	reps := []Replica{
		{T: d0, Role: RoleLocal},
		{T: OverWire(d1, cm), Role: RoleBuddy},
		{T: NewRemote("net", srv), Role: RoleRemote},
	}
	r, err := NewReplicated("repl", reps, ReplicatedConfig{Quorum: 3})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 20
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				obj := fmt.Sprintf("w%d-img%d", g, i)
				if err := Write(r, obj, []byte(obj), WriteOptions{Atomic: true}); err != nil {
					t.Errorf("%s: %v", obj, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < writers; g++ {
		for i := 0; i < perWriter; i++ {
			obj := fmt.Sprintf("w%d-img%d", g, i)
			for ri, member := range []Target{d0, d1, reps[2].T} {
				data, err := member.ReadObject(obj, nil)
				if err != nil || string(data) != obj {
					t.Fatalf("replica %d missing %s: %v", ri, obj, err)
				}
			}
		}
	}
}

// TestRaceStaleWriterFencedOnEveryReplica bumps the fence epoch while
// stale-epoch writers keep publishing from other goroutines. Whenever a
// stale write is rejected, it must be absent from every replica; when a
// write was acknowledged before the bump, it must be present on every
// replica. No mixed outcomes — that is the split-brain the per-replica
// fence exists to prevent.
func TestRaceStaleWriterFencedOnEveryReplica(t *testing.T) {
	cm := costmodel.Default2005()
	d0 := NewLocal("self", cm, nil)
	d1 := NewLocal("buddy", cm, nil)
	srv := NewServer("srv", cm)
	ctr := trace.NewCounters()
	dom := NewFenceDomain("job", ctr)

	replicatedAt := func(epoch uint64) *Replicated {
		reps := []Replica{
			{T: FencedAt(d0, dom, epoch), Role: RoleLocal},
			{T: FencedAt(OverWire(d1, cm), dom, epoch), Role: RoleBuddy},
			{T: FencedAt(NewRemote("net", srv), dom, epoch), Role: RoleRemote},
		}
		r, err := NewReplicated(fmt.Sprintf("repl-e%d", epoch), reps, ReplicatedConfig{Quorum: 3, Counters: ctr})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	const writers, perWriter = 6, 15
	var wg sync.WaitGroup
	var mu sync.Mutex
	acked := make(map[string]bool) // object -> acknowledged
	rejected := make(map[string]bool)

	// One goroutine advances the epoch a few times mid-run.
	epochs := make(chan uint64, 8)
	epochs <- dom.Advance()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			epochs <- dom.Advance()
		}
		close(epochs)
	}()

	// Writers grab whatever epoch was current when they started a batch;
	// the advancer races them into staleness.
	var epochMu sync.Mutex
	current := uint64(1)
	go func() {
		for e := range epochs {
			epochMu.Lock()
			current = e
			epochMu.Unlock()
		}
	}()

	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				epochMu.Lock()
				e := current
				epochMu.Unlock()
				r := replicatedAt(e)
				obj := fmt.Sprintf("w%d-img%d", g, i)
				err := Write(r, obj, []byte(obj), WriteOptions{Atomic: true})
				mu.Lock()
				switch {
				case err == nil:
					acked[obj] = true
				case errors.Is(err, ErrFenced):
					rejected[obj] = true
				default:
					t.Errorf("%s: unexpected error %v", obj, err)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	members := []Target{d0, d1, NewRemote("net", srv)}
	for obj := range acked {
		for ri, member := range members {
			if _, err := member.ReadObject(obj, nil); err != nil {
				t.Fatalf("acked %s missing on replica %d: %v", obj, ri, err)
			}
		}
	}
	for obj := range rejected {
		for ri, member := range members {
			if _, err := member.ReadObject(obj, nil); err == nil {
				t.Fatalf("fenced %s leaked onto replica %d", obj, ri)
			}
		}
	}
	if len(rejected) > 0 {
		if got := ctr.Get("fence.rejected"); got < int64(len(rejected)) {
			t.Fatalf("fence.rejected = %d for %d rejected writes", got, len(rejected))
		}
	}
}

// TestRaceFaultPolicySharedAcrossWriters hammers one fault policy from
// concurrent writers — the draws and counters must not race.
func TestRaceFaultPolicySharedAcrossWriters(t *testing.T) {
	cm := costmodel.Default2005()
	srv := NewServer("srv", cm)
	srv.SetFaults(&FaultPolicy{WriteFault: 0.2, PublishFault: 0.1,
		Rng: rand.New(rand.NewSource(42))})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rem := NewRemote(fmt.Sprintf("net%d", g), srv)
			for i := 0; i < 30; i++ {
				obj := fmt.Sprintf("w%d-%d", g, i)
				// Both outcomes are fine; the point is the interleaving.
				_ = Write(rem, obj, []byte(obj), WriteOptions{Atomic: true})
			}
		}(g)
	}
	wg.Wait()
}

// TestRaceReadersShareWhileWriterPublishes: readers hold and append to
// shared reads of one object while a writer publishes new versions
// under its name. Every read must be one whole version, and no reader's
// append may reach the store or another reader's held result.
func TestRaceReadersShareWhileWriterPublishes(t *testing.T) {
	tgts := map[string]Target{"local": NewLocal("disk", costmodel.Default2005(), nil)}
	tgts["mirror"] = replicatedSets(t)["mirror"]
	for name, tgt := range tgts {
		t.Run(name, func(t *testing.T) {
			const versions, readers, reads, size = 200, 4, 200, 1000
			// publish stages version v in two writes, so the stored
			// buffer has spare capacity, and renames it into place.
			publish := func(v int) error {
				staging := StagingName("obj")
				w, err := tgt.Create(staging, nil)
				if err != nil {
					return err
				}
				for _, n := range []int{size - 10, 10} {
					if _, err := w.Write(bytes.Repeat([]byte{byte(v)}, n)); err != nil {
						return err
					}
				}
				if err := w.Commit(); err != nil {
					return err
				}
				return tgt.Publish(staging, "obj", nil)
			}
			if err := publish(0); err != nil {
				t.Fatal(err)
			}
			whole := func(data []byte, mark byte) bool {
				return len(data) == size+1 && data[size] == mark &&
					bytes.Count(data[:size], data[:1]) == size
			}
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(mark byte) {
					defer wg.Done()
					held := make([][]byte, 0, reads)
					for i := 0; i < reads; i++ {
						data, err := tgt.ReadObject("obj", nil)
						if err != nil {
							t.Errorf("read: %v", err)
							return
						}
						held = append(held, append(data, mark))
					}
					for _, data := range held {
						if !whole(data, mark) {
							t.Errorf("reader %#x holds a changed read: len %d, last %#x", mark, len(data), data[len(data)-1])
							return
						}
					}
				}(byte(0xa0 + r))
			}
			for v := 1; v <= versions; v++ {
				if err := publish(v); err != nil {
					t.Error(err)
					break
				}
			}
			wg.Wait()
		})
	}
}
