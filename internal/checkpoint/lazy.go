// Lazy page-granular restore: restart before read. Eager Restore pays
// for reading and replaying the whole chain before the first restored
// instruction runs; LazyRestore turns the replay planner's per-page jobs
// into a demand-fault service instead. Only the leaf image — registers,
// layout, and the tracker's last dirty set, the hot working set — is
// needed up front; control returns as soon as those pages are applied.
// Every other mapped page is registered as pending with the address
// space's demand-fill hook (internal/simos/mem), and materializes on
// first access: the first fill reads the ancestor images in one batched,
// fence-aware pass through storage.BatchReader, folds them with
// planReplay (the exact plan an eager restore would execute), and serves
// pages out of that plan from then on. A background prefetcher drains
// the remaining plan oldest-page-first so the fault rate decays even if
// the workload never touches cold pages.
//
// Failure semantics mirror eager restore run in reverse: a fence check
// runs before every fill, so a lazy restore superseded mid-recovery
// (its node died and a new incarnation was admitted elsewhere) aborts —
// every subsequent access of the stale process fails rather than
// serving state, the demand-fault service's form of self-fencing. The
// final memory image after a full drain is byte-identical to an eager
// restore of the same chain at every worker count, because both paths
// execute the same last-writer-wins plan.
package checkpoint

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/simos/kernel"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// LazyOptions tune LazyRestore. The embedded RestoreOptions mean what
// they mean for eager Restore; the extra fields describe where the rest
// of the chain lives and when serving it must stop.
type LazyOptions struct {
	RestoreOptions
	// Source serves the deferred ancestor reads (demand faults and the
	// prefetcher). Required when Ancestors is non-empty. Targets that
	// implement storage.BatchReader serve the whole ancestor list in one
	// scheduled pass, like the manifest fast path.
	Source storage.Target
	// Ancestors are the object names of the chain older than the leaf,
	// oldest first (the head must be a full image). Empty means the leaf
	// is itself full and the plan needs no further reads.
	Ancestors []string
	// ReadEnv is billed for the deferred ancestor reads (nil = no
	// billing). The wait time is also accumulated in LazyStats.PlanWait
	// so orchestration layers can account the full restore latency.
	ReadEnv *storage.Env
	// Fenced, when non-nil, is consulted before every fill: returning
	// true aborts the session — a superseded incarnation must not keep
	// serving checkpoint state (self-fencing, the lazy analogue of a
	// stale publish being rejected).
	Fenced func() bool
}

// ErrLazyAborted is the error served to every access of a lazy-restored
// process whose session was aborted (fence advanced, or Abort called).
var ErrLazyAborted = errors.New("checkpoint: lazy restore aborted")

// LazyStats is a snapshot of a session's accounting.
type LazyStats struct {
	// HotPages/HotBytes is what was applied eagerly before control
	// returned (the time-to-first-instruction cost).
	HotPages int
	HotBytes int
	// PlanLoaded reports whether the deferred plan has been read.
	PlanLoaded bool
	// PlanBytes is the full chain's post-pruning replay payload — the
	// same count an eager restore of the chain would copy.
	PlanBytes int
	// PlanWait is the simulated wait spent reading the ancestors.
	PlanWait simtime.Duration
	// FaultsServed counts pages materialized by a demand fault,
	// Prefetched by the background drain; NoopFills are pending pages
	// the plan holds no bytes for (demand-zero either way).
	FaultsServed int
	Prefetched   int
	NoopFills    int
	// Pending is how many pages still await their first fill.
	Pending int
}

// LazySession is the demand-fault service behind one lazy-restored
// process. All methods are safe for concurrent use: the session mutex
// serializes plan loading and page materialization, so a background
// prefetcher goroutine can run against live demand faults.
type LazySession struct {
	mu      sync.Mutex
	as      *mem.AddressSpace
	leaf    *Image
	src     storage.Target
	objs    []string
	readEnv *storage.Env
	fenced  func() bool
	workers int
	metrics *traceMetrics

	planned bool
	// jobs is the deferred plan minus the hot pages, in page order; a
	// served job's spans are cleared, so the plan stops holding its
	// image bytes (a served page may still borrow them until written).
	jobs    pageJobs
	hot     []mem.PageNum // applied before control returned, ascending
	order   []mem.PageNum // pending pages ascending; prefetch cursor below
	next    int
	aborted error

	stats LazyStats
}

// traceMetrics narrows *trace.Metrics to what the session records,
// keeping the hot fill path free of nil checks.
type traceMetrics struct {
	inc func(name string, delta int64)
}

// LazyRestore rebuilds a process on k from the chain's leaf image alone
// and returns as soon as the hot working set — the pages the leaf's
// extents fully cover, which for a tracker-driven delta is exactly the
// last interval's dirty set — is applied. Remaining pages materialize on
// first access through the returned session; see the package comment
// for the full protocol. A full-image leaf with no ancestors works too
// (everything the image holds is hot, so only demand-zero pages stay
// pending).
func LazyRestore(k *kernel.Kernel, leaf *Image, opt LazyOptions) (*proc.Process, *LazySession, error) {
	if leaf == nil {
		return nil, nil, errors.New("checkpoint: lazy restore: nil leaf")
	}
	if leaf.Mode != ModeFull && len(opt.Ancestors) == 0 {
		return nil, nil, ErrNeedsChain
	}
	if len(opt.Ancestors) > 0 && opt.Source == nil {
		return nil, nil, errors.New("checkpoint: lazy restore: ancestors without a Source")
	}

	p, cleanup, err := restoreSkeleton(k, leaf, opt.RestoreOptions)
	if err != nil {
		return nil, nil, err
	}

	// The leaf resolved against its own layout: the hot plan. Pages whose
	// spans fully cover [0,PageSize) carry their final contents already —
	// the leaf is the chain's last writer, so the full chain's plan for
	// those pages prunes to these exact spans. Partially covered pages
	// stay pending (ancestor bytes share the page), applied later from
	// the full plan.
	leafPlan, err := planReplay([]*Image{leaf})
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	workers := opt.Parallelism
	if workers <= 1 {
		workers = 1
	}
	hotPlan := replayPlan{}
	var hot []mem.PageNum
	for _, j := range leafPlan.jobs {
		if !spansCoverPage(j.spans) {
			continue
		}
		hot = append(hot, j.page)
		for _, sp := range j.spans {
			hotPlan.copied += len(sp.data)
		}
		hotPlan.jobs = append(hotPlan.jobs, j)
	}
	w := workers
	if w > len(hotPlan.jobs) && len(hotPlan.jobs) > 0 {
		w = len(hotPlan.jobs)
	}
	var bill costmodel.Biller = k
	if opt.Env != nil && opt.Env.Bill != nil {
		bill = opt.Env.Bill
	}
	bill.Charge(RestoreCost(hotPlan.copied, w), "restore-hot")
	if err := applyPlan(p.AS, &hotPlan, w); err != nil {
		cleanup()
		return nil, nil, err
	}

	// Everything else mapped is pending: pages the chain wrote fill from
	// the plan on first touch, pages it never wrote fill as no-ops (they
	// are demand-zero under eager restore too). The layout and the hot
	// pages are both in page order, so one merged walk finds the rest.
	layout, slots, err := leafSlots(leaf)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	pending := make([]mem.PageNum, 0, slots-len(hot))
	h := 0
	for _, r := range layout {
		for pn := r.start.Page(); pn < r.end.Page(); pn++ {
			if h < len(hot) && hot[h] == pn {
				h++
				continue
			}
			pending = append(pending, pn)
		}
	}

	s := &LazySession{
		as:      p.AS,
		leaf:    leaf,
		src:     opt.Source,
		objs:    append([]string(nil), opt.Ancestors...),
		readEnv: opt.ReadEnv,
		fenced:  opt.Fenced,
		workers: workers,
		hot:     hot,
		order:   pending,
	}
	s.stats.HotPages = len(hotPlan.jobs)
	s.stats.HotBytes = hotPlan.copied
	if opt.Metrics != nil {
		c := opt.Metrics.Counters
		s.metrics = &traceMetrics{inc: c.Inc}
		c.Inc("restore.lazy_hot_pages", int64(len(hotPlan.jobs)))
		c.Inc("restore.lazy_pending_pages", int64(len(pending)))
		c.Inc("restore.bytes_copied", int64(hotPlan.copied))
	}
	p.AS.SetDemandFill(pending, func(pn mem.PageNum) error { return s.serve(pn, false) })

	if err := finishRestore(k, p, leaf, opt.RestoreOptions); err != nil {
		p.AS.ClearDemandFill()
		cleanup()
		return nil, nil, err
	}
	return p, s, nil
}

// spansCoverPage reports whether spans cover every byte of the page:
// from offset 0, some span must always reach past the covered prefix.
func spansCoverPage(spans []pageSpan) bool {
	for covered := 0; covered < mem.PageSize; {
		reach := covered
		for _, sp := range spans {
			if end := sp.off + len(sp.data); sp.off <= covered && end > reach {
				reach = end
			}
		}
		if reach == covered {
			return false
		}
		covered = reach
	}
	return true
}

// serve materializes one claimed page: loads the deferred plan on the
// first call, then applies the page's job (or nothing, for pages the
// chain never wrote). Invoked by the address space's demand-fill hook
// (prefetch=false) and by Prefetch/DrainAll (prefetch=true), in both
// cases with the page already removed from the pending set.
func (s *LazySession) serve(pn mem.PageNum, prefetch bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.aborted != nil {
		return s.aborted
	}
	if s.fenced != nil && s.fenced() {
		s.aborted = fmt.Errorf("%w: fence advanced past this incarnation", ErrLazyAborted)
		return s.aborted
	}
	if err := s.ensurePlanLocked(); err != nil {
		return err
	}
	i, ok := slices.BinarySearchFunc(s.jobs, pn, func(j pageJob, pn mem.PageNum) int { return cmp.Compare(j.page, pn) })
	if !ok {
		// Never written across the chain: demand-zero, exactly as eager
		// restore leaves it.
		s.stats.NoopFills++
		s.countServe(prefetch)
		return nil
	}
	// One page through the eager path: a page that is still demand-zero
	// and written by one full-page span borrows it, and copies it only
	// when first written.
	if _, err := s.as.WritePages(s.jobs[i:i+1], 1); err != nil {
		var f *mem.Fault
		if !errors.As(err, &f) || f.VMA != nil {
			return err
		}
		// Unmapped since the restore (heap shrink, unmap): the page's
		// contents are moot. Matches eager restore followed by the
		// same unmap.
	}
	clear(s.jobs[i].spans)
	s.jobs[i].spans = nil
	s.countServe(prefetch)
	return nil
}

func (s *LazySession) countServe(prefetch bool) {
	if prefetch {
		s.stats.Prefetched++
		if s.metrics != nil {
			s.metrics.inc("restore.prefetched", 1)
		}
		return
	}
	s.stats.FaultsServed++
	if s.metrics != nil {
		s.metrics.inc("restore.fault_served", 1)
	}
}

// ensurePlanLocked loads and resolves the full chain on the first fill:
// one batched ancestor read, chain verification exactly as eager restore
// performs it, then planReplay — minus the hot pages already applied
// (pruning guarantees their plan entries equal what the leaf served).
func (s *LazySession) ensurePlanLocked() error {
	if s.planned {
		return nil
	}
	chain := []*Image{s.leaf}
	if len(s.objs) > 0 {
		env := &storage.Env{
			Bill: costmodel.Discard{},
			Wait: func(d simtime.Duration, what string) { s.stats.PlanWait += d },
		}
		if s.readEnv != nil {
			if s.readEnv.Bill != nil {
				env.Bill = s.readEnv.Bill
			}
			inner := s.readEnv.Wait
			if inner != nil {
				env.Wait = func(d simtime.Duration, what string) {
					s.stats.PlanWait += d
					inner(d, what)
				}
			}
		}
		var err error
		if chain, err = readChain(s.src, env, s.objs); err != nil {
			return fmt.Errorf("checkpoint: lazy plan: %w", err)
		}
		chain = append(chain, s.leaf)
	}
	if err := VerifyChain(chain); err != nil {
		return err
	}
	plan, err := planReplay(chain)
	if err != nil {
		return err
	}
	// Both lists are in page order: keep the jobs of pages not hot,
	// compacted in place, and clear the hot ones' spans.
	s.jobs = plan.jobs[:0]
	h := 0
	for _, j := range plan.jobs {
		for h < len(s.hot) && s.hot[h] < j.page {
			h++
		}
		if h < len(s.hot) && s.hot[h] == j.page {
			clear(j.spans)
			continue
		}
		s.jobs = append(s.jobs, j)
	}
	s.planned = true
	s.stats.PlanLoaded = true
	s.stats.PlanBytes = plan.copied
	if s.metrics != nil {
		s.metrics.inc("restore.lazy_plan_loads", 1)
	}
	return nil
}

// Prefetch claims and materializes up to max pending pages in ascending
// page order (the plan's oldest-first drain). Returns how many pages it
// served; pages a demand fault claimed first are skipped without
// counting. Safe to call from a goroutine concurrent with demand faults.
func (s *LazySession) Prefetch(max int) (int, error) {
	served := 0
	for served < max {
		s.mu.Lock()
		if s.aborted != nil {
			err := s.aborted
			s.mu.Unlock()
			return served, err
		}
		var pn mem.PageNum
		found := false
		for s.next < len(s.order) {
			cand := s.order[s.next]
			s.next++
			if s.as.TakePendingFill(cand) {
				pn, found = cand, true
				break
			}
		}
		s.mu.Unlock()
		if !found {
			return served, nil
		}
		if err := s.serve(pn, true); err != nil {
			// Give the claimed page back and rescan from the top next
			// time — a transient plan-load failure must not leave the
			// page silently demand-zero or strand it past the cursor.
			s.as.ReturnPendingFill(pn)
			s.mu.Lock()
			s.next = 0
			s.mu.Unlock()
			return served, err
		}
		served++
	}
	return served, nil
}

// DrainAll materializes every remaining pending page. After a nil
// return the process's memory is byte-identical to an eager restore of
// the same chain.
func (s *LazySession) DrainAll() error {
	for {
		n, err := s.Prefetch(64)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
	}
}

// Pending returns how many pages still await their first fill.
func (s *LazySession) Pending() int { return s.as.PendingFillCount() }

// Done reports whether every page has been served (the session can be
// closed without losing state).
func (s *LazySession) Done() bool { return s.as.PendingFillCount() == 0 }

// Abort poisons the session: every subsequent access of a still-pending
// page fails with the given error (ErrLazyAborted when nil). Used when
// the restored incarnation is superseded mid-recovery.
func (s *LazySession) Abort(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.aborted != nil {
		return
	}
	if err == nil {
		err = ErrLazyAborted
	}
	s.aborted = err
}

// Close disarms the demand-fill hook. Call only when Done (or after
// Abort): still-pending pages would silently read as zero afterwards.
func (s *LazySession) Close() { s.as.ClearDemandFill() }

// Stats returns a snapshot of the session's accounting.
func (s *LazySession) Stats() LazyStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Pending = s.as.PendingFillCount()
	return st
}
