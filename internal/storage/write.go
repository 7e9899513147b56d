// Unified write entry point. The commit protocol has three forms —
// legacy in-place, atomic (stage + durable commit + publish), and
// chained (parent check + atomic) — and Write selects among them with
// options, so the dispatch logic ("unsafe target? incremental? parent
// durable?") and optimizations like batched publishes live behind a
// single seam instead of at every call site.

package storage

import (
	"errors"
	"fmt"
)

// WriteOptions selects the commit protocol for one Write.
type WriteOptions struct {
	// Atomic stages the payload and publishes it only once durable, so a
	// reader can never observe a torn object under the final name. False
	// selects the legacy in-place write (torn-image window, silent tail
	// loss under fault injection) — for contrast experiments only.
	Atomic bool
	// Parent, when non-empty, requires that object to be durably present
	// on the target before publishing (delta-chain rule: an acknowledged
	// delta must have its whole ancestry intact). Implies Atomic.
	Parent string
	// Env carries the cost-accounting hooks; nil discards all accounting.
	Env *Env
}

// Write stores data under object on t with the commit protocol selected
// by opts. A target wrapped by Unsafe always takes the in-place path —
// that wrapper exists precisely to disable atomic commit without
// threading a flag through every caller.
func Write(t Target, object string, data []byte, opts WriteOptions) error {
	if t == nil {
		return errors.New("storage: Write to nil target")
	}
	if u, ok := t.(unsafeTarget); ok {
		return putInPlace(u.Target, object, data, opts.Env)
	}
	if opts.Parent != "" {
		if _, err := t.ObjectSize(opts.Parent); err != nil {
			return fmt.Errorf("%w: %s needs %s: %v", ErrBrokenChain, object, opts.Parent, err)
		}
		return putStaged(t, object, data, opts.Env)
	}
	if opts.Atomic {
		return putStaged(t, object, data, opts.Env)
	}
	return putInPlace(t, object, data, opts.Env)
}

// BatchItem is one object in a WriteBatch.
type BatchItem struct {
	Object string
	Parent string // optional delta parent; may be an earlier item in the batch
	Data   []byte
}

// WriteBatch atomically commits several small images in one operation:
// every item is staged durably first, then the batch publishes in order
// behind a single amortized metadata round-trip. A Parent may be
// satisfied either by an object already durable on t or by an earlier
// item of the same batch (publishes are ordered, so by the time a child
// publishes its in-batch parent is durable). Returns how many items
// published; on error the published prefix stays — each is a complete,
// chain-valid image — and the unpublished tail's staging objects are
// reclaimed best-effort.
func WriteBatch(t Target, items []BatchItem, env *Env) (published int, err error) {
	if t == nil {
		return 0, errors.New("storage: WriteBatch to nil target")
	}
	if u, ok := t.(unsafeTarget); ok {
		t = u.Target
	}
	staged := make([]string, 0, len(items))
	cleanup := func(from int) {
		for _, s := range staged[from:] {
			_ = t.Delete(s)
		}
	}
	for i, it := range items {
		w, cerr := t.Create(StagingName(it.Object), env)
		if cerr != nil {
			cleanup(0)
			return 0, cerr
		}
		if _, werr := w.Write(it.Data); werr != nil {
			w.Abort()
			// An injected crash leaves the current item's torn staging
			// object on the target, and it is not in staged[] yet (only
			// committed items are) — reclaim it with the rest so a failed
			// batch leaves no debris behind.
			_ = t.Delete(StagingName(it.Object))
			cleanup(0)
			return 0, fmt.Errorf("stage %s: %w", it.Object, werr)
		}
		if cerr := w.Commit(); cerr != nil {
			cleanup(0)
			return 0, cerr
		}
		staged = append(staged, StagingName(items[i].Object))
	}
	for i, it := range items {
		if it.Parent != "" {
			if _, perr := t.ObjectSize(it.Parent); perr != nil {
				cleanup(i)
				return published, fmt.Errorf("%w: %s needs %s: %v", ErrBrokenChain, it.Object, it.Parent, perr)
			}
		}
		// One metadata round-trip pays for the whole batch: later renames
		// ride the same commit record, so only the first publish charges.
		penv := env
		if i > 0 {
			penv = nil
		}
		if perr := t.Publish(StagingName(it.Object), it.Object, penv); perr != nil {
			cleanup(i)
			return published, perr
		}
		published++
	}
	return published, nil
}

// put creates object on t, writes data and commits it. A failed write
// aborts, which after an injected crash leaves the torn object in place.
func put(t Target, object string, data []byte, env *Env) error {
	w, err := t.Create(object, env)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Abort()
		return err
	}
	return w.Commit()
}

// putInPlace is the legacy protocol: bytes stream straight to the final
// name, commit takes no durability barrier, and the target's fault
// policy may tear the object even after a successful return.
func putInPlace(t Target, object string, data []byte, env *Env) error {
	if err := put(t, object, data, env); err != nil {
		return err
	}
	// No durability barrier: the commit may have silently lost its tail,
	// on the store beneath a fenced writer's wrapper too.
	if f, ok := t.(fencedTarget); ok {
		t = f.Target
	}
	if s, ok := t.(*Store); ok {
		if frac, tear := s.policy().tearCommit(); tear {
			s.store.tear(object, frac)
		}
	}
	return nil
}

// putStaged is the atomic protocol: stage, commit behind the durability
// barrier, publish. Any failure leaves the previously committed object
// untouched.
func putStaged(t Target, object string, data []byte, env *Env) error {
	staging := StagingName(object)
	w, err := t.Create(staging, env)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Abort() // a crash tears only the staging object
		return fmt.Errorf("stage %s: %w", object, err)
	}
	// Commit behind the durability barrier (the writer's sync), which is
	// what makes the subsequent rename safe: silent tail loss cannot
	// happen to a synced object.
	if err := w.Commit(); err != nil {
		return err
	}
	return t.Publish(staging, object, env)
}
