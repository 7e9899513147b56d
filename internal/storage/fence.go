// Epoch fencing: the storage-side half of split-brain protection. When
// an autonomic supervisor suspects a node and restarts the job
// elsewhere, the suspicion may be wrong — the "dead" incarnation can
// still be running and still trying to publish checkpoints. Generation
// fencing (the lease-recovery idea of GFS/HDFS) turns that split brain
// into a counted, recoverable event: every writer holds the epoch it was
// started under, the supervisor advances the domain epoch at each
// failover *before* starting the successor, and Publish rejects any
// writer whose epoch is stale. A stale incarnation therefore cannot
// replace a committed image, no matter how torn the control plane is —
// the storage server is the one authority both sides can still reach.

package storage

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// ErrFenced reports a publish attempt by a stale-epoch writer. The
// staging object is discarded server-side; the committed image under the
// final name is untouched. A writer receiving it must consider itself
// superseded (self-fence) and stop.
var ErrFenced = errors.New("storage: writer fenced off (stale epoch)")

// FenceDomain is the authoritative epoch for one fencing scope (one
// job). It lives logically on the checkpoint server: advancing it is the
// supervisor's failover barrier, and comparing against it is how Publish
// tells a live incarnation from a zombie one.
type FenceDomain struct {
	name string
	id   uint64 // creation order: the fixed order multi-domain holders lock in
	// epoch is read concurrently by every fenced replica writer while the
	// supervisor advances it at failover; atomic keeps the -race suite's
	// concurrent-writer scenarios honest.
	epoch atomic.Uint64
	// mu makes a multi-member commit atomic with respect to Advance: a
	// Replicated fan-out read-holds it across its whole member loop and
	// Advance takes it exclusively, so an epoch bump lands before or after
	// the loop, never between two members.
	mu  sync.RWMutex
	ctr *trace.Counters
}

var fenceDomainIDs atomic.Uint64

// NewFenceDomain creates a domain at epoch 0 (no writer admitted yet);
// fence.* counters land in ctr (created when nil).
func NewFenceDomain(name string, ctr *trace.Counters) *FenceDomain {
	if ctr == nil {
		ctr = trace.NewCounters()
	}
	return &FenceDomain{name: name, id: fenceDomainIDs.Add(1), ctr: ctr}
}

// Advance bumps the epoch and returns the new value. Everything
// published under earlier epochs keeps its committed images; every
// writer still holding an earlier epoch is fenced off from here on. It
// waits for any in-flight replicated commit to finish its member loop.
func (d *FenceDomain) Advance() uint64 {
	d.mu.Lock()
	e := d.epoch.Add(1)
	d.mu.Unlock()
	d.ctr.Inc("fence.epochs", 1)
	return e
}

// Epoch returns the current epoch.
func (d *FenceDomain) Epoch() uint64 { return d.epoch.Load() }

// Counters returns the domain's counter set.
func (d *FenceDomain) Counters() *trace.Counters { return d.ctr }

// fencedTarget wraps a Target so Publish enforces the domain epoch.
type fencedTarget struct {
	Target
	dom   *FenceDomain
	epoch uint64
}

// FencedAt wraps t for a writer admitted at the given epoch of dom.
// Reads, creates, and writes pass through (a stale writer can stage all
// the bytes it wants); only Publish — the commit point — is guarded.
func FencedAt(t Target, dom *FenceDomain, epoch uint64) Target {
	return fencedTarget{Target: t, dom: dom, epoch: epoch}
}

// fenceDomain lets a fan-out over members find the domain to hold.
func (f fencedTarget) fenceDomain() *FenceDomain { return f.dom }

// holdFences read-locks the distinct fence domains of the fence-wrapped
// replicas, in creation order so concurrent holders cannot deadlock
// against a pending Advance, and returns the matching unlock.
func holdFences(reps []Replica) (release func()) {
	var doms []*FenceDomain
	for _, rep := range reps {
		f, ok := rep.T.(interface{ fenceDomain() *FenceDomain })
		if !ok || slices.Contains(doms, f.fenceDomain()) {
			continue
		}
		doms = append(doms, f.fenceDomain())
	}
	slices.SortFunc(doms, func(a, b *FenceDomain) int { return cmp.Compare(a.id, b.id) })
	for _, d := range doms {
		d.mu.RLock()
	}
	return func() {
		for _, d := range doms {
			d.mu.RUnlock()
		}
	}
}

// Publish implements Target: the rename happens only if the writer's
// epoch is still current. A stale writer's staging object is deleted
// (the server GCs debris of fenced incarnations) and the attempt is
// counted under fence.rejected.
func (f fencedTarget) Publish(staging, final string, env *Env) error {
	if f.epoch < f.dom.Epoch() {
		f.dom.ctr.Inc("fence.rejected", 1)
		_ = f.Target.Delete(staging)
		return fmt.Errorf("%w: %s epoch %d, current %d", ErrFenced, f.dom.name, f.epoch, f.dom.Epoch())
	}
	return f.Target.Publish(staging, final, env)
}

// Delete implements Target: object deletion is the other commit-point
// mutation. Chain GC retires superseded images through its fenced
// target, and a stale incarnation's retire list may name objects the
// live chain still needs — fencing it here is what keeps a zombie's
// garbage collection from breaking a live chain.
func (f fencedTarget) Delete(object string) error {
	if f.epoch < f.dom.Epoch() {
		f.dom.ctr.Inc("fence.rejected", 1)
		return fmt.Errorf("%w: %s epoch %d, current %d", ErrFenced, f.dom.name, f.epoch, f.dom.Epoch())
	}
	return f.Target.Delete(object)
}
