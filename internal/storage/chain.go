// Chain-aware publish and garbage collection for incremental
// checkpoints. A delta image is only as durable as its whole ancestry:
// restore replays the chain from its full head, so an acknowledged delta
// whose parent was never published — or was later deleted — is a silent
// hole that only surfaces at the worst time, during failover. The two
// rules live here: a delta may only be published onto a durable parent
// (Write with a Parent), and reclaiming a superseded chain goes through the same
// epoch fence as publishing (fencedTarget.Delete), so a stale
// incarnation can no more unlink the live chain's images than overwrite
// them.

package storage

import (
	"errors"
)

// ErrBrokenChain reports an attempt to publish a delta whose parent
// object is not durably present on the target.
var ErrBrokenChain = errors.New("storage: delta parent not durable")

// RetireChain garbage-collects a superseded chain, deleting objects in
// order. Deleting through a fenced target is deliberate: GC is a
// chain-head mutation, and a stale incarnation's retire list may name
// objects the live incarnation still depends on. Already-missing
// objects are skipped (GC is idempotent). On the first real error the
// sweep stops and the undeleted tail is returned so the caller can
// retry it after the next rebase; deleted holds what was reclaimed
// either way.
func RetireChain(t Target, objects []string) (deleted, pending []string, err error) {
	for i, o := range objects {
		if o == "" {
			continue
		}
		derr := t.Delete(o)
		switch {
		case derr == nil:
			deleted = append(deleted, o)
		case errors.Is(derr, ErrNotFound):
			// Already gone — a prior partial sweep got it.
		default:
			return deleted, append([]string(nil), objects[i:]...), derr
		}
	}
	return deleted, nil, nil
}
