// Lazy failover: restart before read. With Supervisor.LazyRestore set,
// the autonomic failover restores the job from the leaf image alone —
// registers, layout, and the tracker's last dirty set — and returns
// control as soon as those hot pages are applied. The rest of the chain
// materializes on demand through checkpoint.LazySession: first-touch
// faults batch-read the ancestors through the same fenced target, and
// the supervisor's step hook drains the remaining plan oldest-first as
// a background prefetcher. A session superseded by a later failover
// aborts instead of serving state (the demand-fault service's
// self-fencing), and every GC that could unlink the session's ancestors
// — the new incarnation's first capture, a retire sweep, a server-side
// compaction — settles the session first, so lazy restore never trades
// durability for latency.

package cluster

import (
	"errors"

	"repro/internal/checkpoint"
	"repro/internal/costmodel"
	"repro/internal/mechanism"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// lazyPrefetchBatch is how many pending pages the background prefetcher
// serves per cluster step. Small enough that demand faults interleave,
// large enough that the plan drains in a handful of intervals.
const lazyPrefetchBatch = 8

// lazyRun tracks one in-flight lazy restore: the session serving demand
// faults, the fencing epoch it was admitted under, and the latency
// pieces finishLazy folds into the single restore.latency observation.
type lazyRun struct {
	sess     *checkpoint.LazySession
	epoch    uint64
	leafWait simtime.Duration // storage wait for the leaf read (pre-TTFI)
	chainLen int
}

// recoverLazy attempts the restart-before-read failover. It returns a
// nil process and no error when the lazy preconditions do not hold (no
// manifest for the recovery pointer, a mechanism without RestartLazy,
// an unreadable or torn leaf): restartOn then falls back to the eager
// path, which re-discovers ancestry by walking parent links and
// classifies the storage failure itself.
func (s *Supervisor) recoverLazy(src storage.Target, spare int, epoch uint64, manifest []string) (*proc.Process, error) {
	n := len(manifest)
	if s.lastLeaf == "" || src == nil || !src.Available() || n == 0 || manifest[n-1] != s.lastLeaf {
		return nil, nil
	}
	m, _, err := s.prepareOn(spare)
	if err != nil {
		return nil, err
	}
	lr, ok := m.(mechanism.LazyRestarter)
	if !ok {
		return nil, nil
	}

	// Only the leaf is read on the critical path; its wait is the read
	// half of the time-to-first-instruction.
	var leafWait simtime.Duration
	env := &storage.Env{Bill: costmodel.Discard{},
		Wait: func(d simtime.Duration, _ string) { leafWait += d }}
	blob, err := src.ReadObject(s.lastLeaf, env)
	if err != nil {
		return nil, nil
	}
	leaf, err := checkpoint.Decode(blob)
	if err != nil {
		s.Counters().Inc("ckpt.torn", 1)
		return nil, nil
	}

	p, sess, err := lr.RestartLazy(s.C.Node(spare).K, leaf, checkpoint.LazyOptions{
		RestoreOptions: checkpoint.RestoreOptions{Enqueue: true, Metrics: s.Metrics},
		Source:         src,
		Ancestors:      manifest[:n-1],
		Fenced:         func() bool { return s.fence.Epoch() != epoch },
	})
	if err != nil {
		if errors.Is(err, checkpoint.ErrNeedsChain) {
			return nil, nil // manifest inconsistent with the leaf's mode
		}
		return nil, err
	}

	st := sess.Stats()
	ttfi := leafWait + checkpoint.RestoreCost(st.HotBytes, s.restoreWorkers)
	s.Metrics.Hist("restore.first_instr_latency").Observe(float64(ttfi.Millis()))
	s.Metrics.Hist("restore.chain_len").Observe(float64(n))
	s.Counters().Inc("restore.count", 1)
	s.Counters().Inc("restore.lazy", 1)
	s.emit(EvRestore, spare, epoch, s.lastLeaf+" lazy")
	s.lazy = &lazyRun{sess: sess, epoch: epoch, leafWait: leafWait, chainLen: n}
	return p, nil
}

// pumpLazy advances the background prefetcher one batch per cluster
// step and settles the session once the drain completes. A session
// whose epoch the fence has moved past is aborted instead: its process
// is a stale incarnation and must not keep materializing state.
func (s *Supervisor) pumpLazy() {
	if s.lazy == nil {
		return
	}
	if s.fence.Epoch() != s.lazy.epoch {
		s.failLazy(nil)
		return
	}
	if _, err := s.lazy.sess.Prefetch(lazyPrefetchBatch); err != nil {
		s.failLazy(err)
		return
	}
	if s.lazy.sess.Done() {
		s.finishLazy()
	}
}

// settleLazy force-drains the live session so every page is
// materialized now. Called wherever deferral would be unsound: before a
// capture of the lazy incarnation (a tracker or full capture sees only
// resident pages), before GC retires chain objects the session may
// still need to read, and at job completion.
func (s *Supervisor) settleLazy() {
	if s.lazy == nil {
		return
	}
	if err := s.lazy.sess.DrainAll(); err != nil {
		s.failLazy(err)
		return
	}
	s.finishLazy()
}

// finishLazy records the settled session's full restore latency — the
// leaf read, the deferred ancestor reads, and the replay of the whole
// post-pruning payload at the restore width. This is the lazy path's
// single outermost restore.latency observation site, mirroring
// observeRestore on the eager path; nothing else records it.
func (s *Supervisor) finishLazy() {
	lr := s.lazy
	s.lazy = nil
	st := lr.sess.Stats()
	lr.sess.Close()
	lat := lr.leafWait + st.PlanWait + checkpoint.RestoreCost(st.PlanBytes, s.restoreWorkers)
	s.Metrics.Hist("restore.latency").Observe(float64(lat.Millis()))
	s.Counters().Inc("restore.deltas_replayed", int64(lr.chainLen-1))
}

// failLazy poisons the live session: every later access of a
// still-pending page fails with err (ErrLazyAborted when nil). The
// demand-fill hook stays armed on purpose — a stale process must fault,
// not silently read zeroes.
func (s *Supervisor) failLazy(err error) {
	lr := s.lazy
	s.lazy = nil
	lr.sess.Abort(err)
	s.Counters().Inc("restore.lazy_aborted", 1)
}
