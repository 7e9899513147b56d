package checkpoint

import (
	"sort"

	"repro/internal/simos/mem"
)

// carry is the tracker a DeltaChain collects through. A Tracker's Collect
// clears its dirty set, so a delta whose publish then fails (storage
// fault, fencing) would silently swallow those ranges: the next delta only
// covers writes since the failed collection, and the chain restores with a
// hole. carry keeps every collected-but-uncommitted range pending and
// folds it into the next Collect; the chain's Commit drops the pending
// set. Carrying is a superset, never a hole: a pending range re-ships
// page contents the chain may already hold, which is redundant but safe.
type carry struct {
	Tracker
	pending []Range
}

// Collect returns the tracker's ranges merged with any pending ranges
// from earlier uncommitted collections, and holds the union pending.
func (t *carry) Collect() ([]Range, error) {
	rs, err := t.Tracker.Collect()
	if err != nil {
		return nil, err
	}
	t.pending = mergeRanges(rs, t.pending)
	return t.pending, nil
}

// DeltaChain is the one rule for a process's incremental chain, used by
// TICK for each process it checkpoints and by each cluster checkpoint
// agent for its incarnation. The owner arms a tracker on first use
// (Arm), asks before each capture whether it rebases and which tracker
// it collects (Next), and reports each capture whose sequence committed
// (Commit). A chain's first capture and every every-th successful one
// after it rebase (every = 0: only the first), as does every capture
// after ForceRebase until a full image commits.
type DeltaChain struct {
	every int
	trk   *carry
	fresh bool // armed since the last Next: its first Collect covers every resident page
	n     int  // successful captures
	force bool
}

// NewDeltaChain returns a chain that rebases every every-th capture.
func NewDeltaChain(every int) *DeltaChain { return &DeltaChain{every: every} }

// Arm arms newTracker's tracker, unless the chain holds an armed one
// already. Until a capture commits, the chain carries each collection's
// ranges into the next.
func (c *DeltaChain) Arm(newTracker func() Tracker) error {
	if c.trk != nil {
		return nil
	}
	t := &carry{Tracker: newTracker()}
	if err := t.Arm(); err != nil {
		return err
	}
	c.trk, c.fresh = t, true
	return nil
}

// Next decides the next capture: whether it rebases, and the tracker it
// collects (nil: a complete image of every resident page).
func (c *DeltaChain) Next() (Tracker, bool) {
	rebase := c.force || c.n == 0 || c.every > 0 && c.n%c.every == 0
	fresh := c.fresh
	c.fresh = false
	if c.trk == nil || rebase && !fresh {
		// A rebase round captures without a tracker that has collected
		// before: the full image must cover every resident page, and a
		// Collect here would return only this epoch's dirty set, a hole
		// in every delta hanging off the rebase. The uncollected dirty
		// set keeps accumulating, so the next delta ships a safe
		// superset. A tracker armed since the last round has never
		// collected, so its first Collect is every resident page.
		return nil, rebase
	}
	return c.trk, rebase
}

// Commit records a capture whose sequence committed: the ranges its
// tracker carried are in the chain now, and a full image ends a forced
// rebase.
func (c *DeltaChain) Commit(img *Image) {
	c.n++
	if c.trk != nil {
		c.trk.pending = nil
	}
	if img.Mode != ModeIncremental {
		c.force = false
	}
}

// ForceRebase makes every capture rebase until a full image commits.
func (c *DeltaChain) ForceRebase() { c.force = true }

// Close releases the tracker (restoring the process's page protections).
// The chain keeps its place: a later Arm starts a fresh tracker, whose
// first collection covers everything. A nil chain has nothing to close.
func (c *DeltaChain) Close() {
	if c != nil && c.trk != nil {
		c.trk.Close()
		c.trk, c.fresh = nil, false
	}
}

// mergeRanges returns the union of two page-granular range sets as
// sorted, coalesced, non-overlapping, non-empty ranges (the shape
// Capture expects). It coalesces intervals directly — the earlier
// implementation expanded every range to individual page numbers first,
// an O(bytes/page) allocation that made carrying a large failed delta
// (exactly the storage-fault retry path) far more expensive than
// shipping it.
//
// Zero-length ranges are dropped on every path: the earlier code's
// early returns passed one input through unfiltered and the merge loop
// absorbed empty ranges adjacent to real ones while keeping standalone
// ones, so whether an empty range survived depended on what it happened
// to sit next to. A surviving empty range became an empty image extent,
// which Verify rejects and the replay planner silently skips — the same
// chain accepted or refused depending on merge order.
func mergeRanges(a, b []Range) []Range {
	rs := make([]Range, 0, len(a)+len(b))
	for _, r := range a {
		if r.Length > 0 {
			rs = append(rs, r)
		}
	}
	for _, r := range b {
		if r.Length > 0 {
			rs = append(rs, r)
		}
	}
	if len(rs) == 0 {
		return nil
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Addr < rs[j].Addr })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		lastEnd := last.Addr + mem.Addr(last.Length)
		if r.Addr <= lastEnd {
			if end := r.Addr + mem.Addr(r.Length); end > lastEnd {
				last.Length += int(end - lastEnd)
			}
			continue
		}
		out = append(out, r)
	}
	return out
}
