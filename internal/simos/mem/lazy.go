// Lazy-restore support: the demand-fill hook. A lazy restore maps the
// checkpointed layout and resumes execution before the image contents
// have been read back; every page that eager restore would have
// materialized up front is instead registered here as *pending*, and the
// first access to a pending page — workload loads and stores through
// access(), kernel-mode reads and writes through ReadDirect/WriteDirect,
// and replay writes through WritePages — invokes the DemandFiller to
// materialize the checkpointed contents before the access proceeds.
//
// This is deliberately a separate channel from FaultHandler: the fault
// handler models protection-violation dispatch (dirty tracking, SIGSEGV
// delivery) and runs only on protection mismatches, while the demand
// fill must intercept *every* first touch, including kernel-mode paths
// that bypass protection entirely.
//
// The pending set has its own mutex so a background prefetcher can claim
// pages (TakePendingFill) concurrently with demand faults; the page maps
// themselves stay single-writer — the filler implementation serializes
// page materialization behind its own lock.
package mem

import "sync"

// DemandFiller materializes the checkpointed contents of one pending
// page. It is invoked with the page already removed from the pending set
// (so a fill that re-enters the address space — WritePages on the same
// page — does not recurse). A non-nil error aborts the access that
// triggered the fill; the page is returned to the pending set so a
// later retry can try again.
type DemandFiller func(pn PageNum) error

// lazyFill is the pending-page bookkeeping, guarded by its own mutex so
// prefetchers on other goroutines can claim pages concurrently with the
// simulation goroutine's demand faults.
type lazyFill struct {
	mu      sync.Mutex
	pending map[PageNum]struct{}
	fill    DemandFiller
}

// SetDemandFill arms the demand-fill hook: pages lists every page whose
// contents are still on storage, fill is called on the first access to
// each. Replaces any previous hook.
func (as *AddressSpace) SetDemandFill(pages []PageNum, fill DemandFiller) {
	lf := &lazyFill{pending: make(map[PageNum]struct{}, len(pages)), fill: fill}
	for _, pn := range pages {
		lf.pending[pn] = struct{}{}
	}
	as.lazy = lf
}

// ClearDemandFill disarms the hook and forgets any still-pending pages
// (they stay demand-zero, as if never checkpointed). Callers that need
// the checkpointed contents must drain the pending set first.
func (as *AddressSpace) ClearDemandFill() { as.lazy = nil }

// PendingFillCount returns how many pages still await their first fill.
func (as *AddressSpace) PendingFillCount() int {
	lf := as.lazy
	if lf == nil {
		return 0
	}
	lf.mu.Lock()
	defer lf.mu.Unlock()
	return len(lf.pending)
}

// TakePendingFill atomically claims pn from the pending set, reporting
// whether it was still pending. A prefetcher claims pages through here
// and then materializes them itself, so a demand fault racing on the
// same page finds it already gone and proceeds without a second fill.
func (as *AddressSpace) TakePendingFill(pn PageNum) bool {
	lf := as.lazy
	if lf == nil {
		return false
	}
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if _, ok := lf.pending[pn]; !ok {
		return false
	}
	delete(lf.pending, pn)
	return true
}

// ReturnPendingFill puts a claimed page back in the pending set — a
// prefetcher that claimed the page but failed to materialize it must
// not leave it silently demand-zero.
func (as *AddressSpace) ReturnPendingFill(pn PageNum) {
	lf := as.lazy
	if lf == nil {
		return
	}
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if lf.pending != nil {
		lf.pending[pn] = struct{}{}
	}
}

// fillPending runs the demand fill for pn if it is still pending. Called
// from every access path before the page's contents are observed or
// overwritten. The page is removed from the pending set before the
// filler runs (recursion guard) and restored on error.
func (as *AddressSpace) fillPending(pn PageNum) error {
	lf := as.lazy
	if lf == nil {
		return nil
	}
	lf.mu.Lock()
	if _, ok := lf.pending[pn]; !ok {
		lf.mu.Unlock()
		return nil
	}
	delete(lf.pending, pn)
	fill := lf.fill
	lf.mu.Unlock()
	if fill == nil {
		return nil
	}
	if err := fill(pn); err != nil {
		lf.mu.Lock()
		if lf.pending != nil {
			lf.pending[pn] = struct{}{}
		}
		lf.mu.Unlock()
		return err
	}
	return nil
}

// dropPendingFill forgets pending pages in [start,end) — called when the
// range is unmapped (Unmap, SetBrk shrink), so a later remap sees fresh
// demand-zero pages instead of resurrected checkpoint contents, exactly
// as an eager restore followed by the same unmap would.
func (as *AddressSpace) dropPendingFill(start, end Addr) {
	lf := as.lazy
	if lf == nil {
		return
	}
	lf.mu.Lock()
	defer lf.mu.Unlock()
	for pn := range lf.pending {
		if pn.Base() >= start && pn.Base() < end {
			delete(lf.pending, pn)
		}
	}
}
