// Supervisor-driven chain compaction. RebaseEvery bounds a chain by
// periodically shipping a fresh full image over the interconnect — the
// agent pays for the bound. Compaction bounds it from the storage side:
// when the live chain accumulates more than CompactAfter deltas, the
// supervisor folds the whole chain into one full image directly on the
// server (storage.CompactChain with checkpoint.FoldEncodedChain as the
// fold) and retires the folded deltas. No capture traffic is spent, and
// the next failover replays at most CompactAfter deltas regardless of
// how long the incarnation has been running.

package cluster

import (
	"repro/internal/checkpoint"
	"repro/internal/storage"
)

// maybeCompact folds the live chain when a delta ack has pushed it past
// the CompactAfter bound. It runs through the acking agent's fenced
// target, so a stale incarnation's compactor is rejected exactly like
// its publishes; the folded image keeps the leaf's object name, so the
// recovery pointer (lastLeaf) and any in-flight child's Parent link are
// untouched. Compaction is server-side background work off the job's
// critical path: no Env is billed, only the orchestration counters and
// event log record it.
func (s *Supervisor) maybeCompact(a *ckptAgent, tgt storage.Target) {
	if s.CompactAfter <= 0 || len(s.chainObjs)-1 <= s.CompactAfter {
		return
	}
	// Compaction retires the folded deltas — exactly the ancestors a
	// draining lazy session would read for its deferred plan. Settle the
	// session before the server mutates the chain (no-op when none).
	s.settleLazy()
	objs := append([]string(nil), s.chainObjs...)
	st, err := storage.CompactChain(tgt, objs, checkpoint.FoldEncodedChain, nil)
	if st.Folded == "" {
		// Nothing changed on the server (read, fold, or publish failed —
		// a fenced publish included): the chain stays as it was and the
		// next ack retries. lastLeaf still resolves, so this is purely a
		// missed optimization, never lost protection.
		s.Counters().Inc("compact.failed", 1)
		return
	}
	// The fold is durable under the leaf's name: the chain is now that
	// single full image, whatever became of the GC below.
	s.Counters().Inc("compact.folds", 1)
	s.Counters().Inc("compact.folded_deltas", int64(st.Deltas))
	s.Counters().Inc("compact.bytes_written", int64(st.BytesOut))
	s.emit(EvCompact, a.node, a.epoch, st.Folded)
	s.chainObjs = []string{st.Folded}
	s.chainSizes = map[string]int{st.Folded: st.BytesOut}
	s.lastFull = st.Folded
	s.retired(a, st.Deleted, st.Pending, err)
}
