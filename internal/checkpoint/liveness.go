// Liveness-aware dirty tracking. The write-protect tracker in
// tracker.go answers "which pages changed since the last checkpoint?";
// this one also answers "which of those pages' contents will the
// application ever read again?". A page that is overwritten in full
// before being read, epoch after epoch, is scratch space: shipping its
// bytes protects state the application provably does not consume. The
// tracker removes read permission as well as write permission at the
// start of each epoch, so the *first* access to every page is observed
// and classified:
//
//   - first access is a read, or a store smaller than the page (which
//     merges with the old contents): the old contents were live;
//   - first access is a whole-page store: the old contents were dead.
//
// Pages whose dead streak reaches DefaultDeadStreak consecutive epochs are
// excluded from the collected delta. The prediction is heuristic, so it
// carries a repair path: an excluded page's next read-before-write
// faults (the page starts each epoch unreadable), which marks the page
// *forced* — its contents ship with the next collection even if it is
// never dirtied again, restoring the chain's completeness one epoch
// after the first misprediction. Application-declared protect regions
// (proc.CkptRegion) veto exclusion outright; declared exclude regions
// are dropped from every delta with no repair obligation.
package checkpoint

import (
	"fmt"

	"repro/internal/simos/kernel"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
)

// DefaultDeadStreak is how many consecutive overwritten-before-read
// epochs a page needs before exclusion. Two is the floor that keeps
// alternating access patterns (Stencil-style ping-pong grids read every
// other epoch) permanently safe from exclusion.
const DefaultDeadStreak = 2

// LivenessTracker is a page-granular dirty tracker that additionally
// classifies each page's first access per epoch and excludes
// persistently dead pages from the delta. It runs on the same protection
// bindings as WPTracker: the kernel flavor charges direct PTE costs, the
// user flavor pays the full SIGSEGV-plus-mprotect path of §3 on every
// first touch, reads now included.
type LivenessTracker struct {
	pageTracker
	p *proc.Process

	orig      map[*mem.VMA]mem.Prot // protections before tracking
	live      map[mem.PageNum]bool  // first access read/merged old data
	dead      map[mem.PageNum]bool  // first access overwrote whole page
	streak    map[mem.PageNum]int   // consecutive dead epochs
	unshipped map[mem.PageNum]bool  // excluded from the last delta
	forced    map[mem.PageNum]bool  // misprediction: must ship next

	lastExcluded []Range
}

func newLivenessTracker(p *proc.Process, name string, bind protection) *LivenessTracker {
	return &LivenessTracker{
		pageTracker: newPageTracker(p.AS, name, bind),
		p:           p,
		orig:        make(map[*mem.VMA]mem.Prot),
		live:        make(map[mem.PageNum]bool),
		dead:        make(map[mem.PageNum]bool),
		streak:      make(map[mem.PageNum]int),
		unshipped:   make(map[mem.PageNum]bool),
		forced:      make(map[mem.PageNum]bool),
	}
}

// NewKernelLivenessTracker attaches a kernel-level liveness tracker:
// protection changes are direct PTE updates, faults cost one kernel
// fault plus a PTE fix (§4).
func NewKernelLivenessTracker(k *kernel.Kernel, p *proc.Process) *LivenessTracker {
	return newLivenessTracker(p, "kernel-live", newKernelProtection(k, p, "live"))
}

// NewUserLivenessTracker attaches a user-level liveness tracker: every
// first touch — reads now included — pays SIGSEGV delivery, an mprotect
// syscall, and sigreturn (§3), roughly doubling the per-epoch fault
// bill relative to write-only tracking.
func NewUserLivenessTracker(ctx *kernel.Context) *LivenessTracker {
	return newLivenessTracker(ctx.P, "user-live", newUserProtection(ctx, "live"))
}

// Arm implements Tracker.
func (t *LivenessTracker) Arm() error {
	t.attach(t.onFault)
	return t.protectAll(t.noAccess)
}

// noAccess removes both read and write permission from v, remembering
// its intended protection so fault fix-ups can restore it (the VMA's
// live Prot field is clobbered by whole-VMA reprotection).
func (t *LivenessTracker) noAccess(v *mem.VMA) mem.Prot {
	if _, ok := t.orig[v]; !ok {
		t.orig[v] = v.Prot
	}
	return t.orig[v] &^ (mem.ProtRead | mem.ProtWrite)
}

func (t *LivenessTracker) onFault(f *mem.Fault) mem.Disposition {
	if f.VMA == nil || f.VMA.Kind == mem.KindText ||
		(f.Access != mem.AccessRead && f.Access != mem.AccessWrite) {
		return passFault(t.prev, f)
	}
	orig, tracked := t.orig[f.VMA]
	if !tracked {
		// Mapped after arming; next protectAll will pick it up.
		return passFault(t.prev, f)
	}
	pn := f.Addr.Page()
	first := !t.live[pn] && !t.dead[pn]
	t.stats.Faults++
	if f.Access == mem.AccessRead {
		if first {
			t.classifyLive(pn)
		}
		// Readable again, but still write-protected so the first store
		// is still observed for dirty tracking.
		t.stats.RuntimeOverhead += t.bind.reopen(pn.Base(), orig&^mem.ProtWrite)
		return mem.FaultRetry
	}
	if first {
		if f.Len >= mem.PageSize && f.Addr.Offset() == 0 {
			t.dead[pn] = true
		} else {
			t.classifyLive(pn) // partial store merges with old contents
		}
	}
	t.dirty[pn] = true
	t.stats.RuntimeOverhead += t.bind.reopen(pn.Base(), orig)
	return mem.FaultRetry
}

// classifyLive records that pn's pre-epoch contents were consumed. If
// those contents were withheld from the last delta, the exclusion was a
// misprediction and the page must ship with the next collection.
func (t *LivenessTracker) classifyLive(pn mem.PageNum) {
	t.live[pn] = true
	t.streak[pn] = 0
	if t.unshipped[pn] {
		t.forced[pn] = true
	}
}

// Collect implements Tracker: the dirty set (or everything resident, on
// the first collection) minus dead-streak and declared-exclude pages,
// plus forced repairs.
func (t *LivenessTracker) Collect() ([]Range, error) {
	if !t.armed {
		return nil, fmt.Errorf("checkpoint: %s: Collect before Arm", t.name)
	}
	pages := t.epochPages()
	// Streak accounting: a whole-page overwrite before any read extends
	// the dead streak; any other write resets it (reads reset at fault
	// time, in classifyLive).
	for pn := range t.dirty {
		if t.dead[pn] {
			t.streak[pn]++
		} else {
			t.streak[pn] = 0
		}
	}
	var out, excluded []mem.PageNum
	for _, pn := range pages {
		switch {
		case t.p.RegionExcluded(pn):
			// Declared rebuildable: never ships, never repairs.
			excluded = append(excluded, pn)
		case t.streak[pn] >= DefaultDeadStreak && !t.forced[pn] && !t.p.RegionProtected(pn):
			t.unshipped[pn] = true
			excluded = append(excluded, pn)
		default:
			out = append(out, pn)
		}
	}
	// Forced repairs ship even when the page was not dirtied again.
	inOut := make(map[mem.PageNum]bool, len(out))
	for _, pn := range out {
		inOut[pn] = true
	}
	for pn := range t.forced {
		if !inOut[pn] {
			out = append(out, pn)
		}
	}
	for _, pn := range out {
		delete(t.unshipped, pn)
	}
	t.forced = make(map[mem.PageNum]bool)
	t.live = make(map[mem.PageNum]bool)
	t.dead = make(map[mem.PageNum]bool)
	t.dirty = make(map[mem.PageNum]bool)
	t.lastExcluded = pagesToRanges(excluded)
	t.stats.ExcludedBytes += uint64(len(excluded)) * mem.PageSize
	if err := t.protectAll(t.noAccess); err != nil {
		return nil, err
	}
	return pagesToRanges(out), nil
}

// LastExcluded returns the ranges the most recent Collect withheld
// (dead-streak exclusions plus declared exclude regions).
func (t *LivenessTracker) LastExcluded() []Range { return t.lastExcluded }

// Close implements Tracker: restores the pre-tracking protections,
// charged like any other reprotection, and the fault handler.
func (t *LivenessTracker) Close() {
	if !t.armed {
		return
	}
	for v, orig := range t.orig {
		_, _ = t.bind.protect(v, orig)
	}
	t.as.SetFaultHandler(t.prev)
	t.armed = false
}

var _ Tracker = (*LivenessTracker)(nil)
