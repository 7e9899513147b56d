// Parallel chain replay. Restore latency is the user-visible downtime
// checkpointing exists to bound, and the sequential extent loop made it
// ~190x slower than a sharded capture of the same state. The planner
// here resolves a whole chain into per-page write jobs up front —
// last-writer-wins computed before any byte moves — so a worker pool can
// apply pages concurrently without ever racing on overlapping extents:
// a page belongs to exactly one job, a job applies its spans in chain
// order, and jobs touch disjoint buffers. Restored memory is therefore
// byte-identical at any worker count, mirroring the parallel capture
// path's guarantee from the other direction.

package checkpoint

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/simos/mem"
	"repro/internal/simtime"
)

// pageSpan is one extent fragment destined for a single page. data
// aliases the image extent; spans are applied in chain order.
type pageSpan struct {
	off  int // byte offset within the page
	data []byte
}

// pageJob is all writes one page receives across the whole chain.
type pageJob struct {
	page  mem.PageNum
	spans []pageSpan
}

// pageJobs is a plan's jobs in ascending page order. It is the
// mem.PageSource a replay writes: a page still demand-zero gets a frame
// built from its final bytes, any other page its spans in chain order.
type pageJobs []pageJob

func (js pageJobs) Len() int                              { return len(js) }
func (js pageJobs) Page(i int) mem.PageNum                { return js[i].page }
func (js pageJobs) Final(i int, pieces [][]byte) [][]byte { return finalPieces(pieces, js[i].spans) }
func (js pageJobs) Apply(i int, frame []byte)             { applySpans(frame, js[i].spans) }

// replayPlan is a chain resolved against its leaf memory layout.
type replayPlan struct {
	jobs pageJobs
	// spans holds every job's spans back to back, and only those: no
	// pruned span keeps its image's bytes reachable from the plan.
	spans []pageSpan
	// copied is what a replay of the plan moves; pruned counts bytes
	// dropped because a later delta fully overwrote them before any
	// worker was asked to copy them.
	copied int
	pruned int
}

// slotRange is one leaf section's run of page slots: the pages of
// [start, end) are slots base, base+1, and so on.
type slotRange struct {
	start, end mem.Addr
	base       int
}

// leafSlots numbers the pages the leaf layout maps, in address order.
// It returns the sections sorted by start and the slot count. A layout
// that is unaligned or overlaps itself could not be mapped, and its
// pages have no one slot each, so it is an error.
func leafSlots(leaf *Image) ([]slotRange, int, error) {
	layout := make([]slotRange, len(leaf.VMAs))
	for i, v := range leaf.VMAs {
		layout[i] = slotRange{start: v.Start, end: v.Start + mem.Addr(v.Length)}
	}
	slices.SortFunc(layout, func(a, b slotRange) int { return cmp.Compare(a.start, b.start) })
	slots := 0
	for i := range layout {
		r := &layout[i]
		if r.start%mem.PageSize != 0 || r.end%mem.PageSize != 0 || r.end < r.start || (i > 0 && r.start < layout[i-1].end) {
			return nil, 0, fmt.Errorf("checkpoint: restore layout: vma %#x-%#x is unaligned or overlaps another", uint64(r.start), uint64(r.end))
		}
		r.base = slots
		slots += int((r.end - r.start) >> mem.PageShift)
	}
	return layout, slots, nil
}

// findSlotRange returns the index of the section that maps a, or -1.
// The section at hint, usually the previous span's, is tried first.
func findSlotRange(layout []slotRange, a mem.Addr, hint int) int {
	if hint >= 0 && a >= layout[hint].start && a < layout[hint].end {
		return hint
	}
	i := sort.Search(len(layout), func(i int) bool { return layout[i].end > a })
	if i < len(layout) && a >= layout[i].start {
		return i
	}
	return -1
}

// eachSpan splits chain's extents at page boundaries and calls visit
// with each fragment and its page's slot, in chain order. Extents whose
// start address is no longer mapped in the leaf are skipped, matching
// the sequential semantics; an extent that starts mapped but runs off
// the layout fails exactly like WriteDirect would.
func eachSpan(chain []*Image, layout []slotRange, visit func(slot int, s pageSpan)) error {
	si := -1
	for _, img := range chain {
		for _, v := range img.VMAs {
			for _, e := range v.Extents {
				if len(e.Data) == 0 {
					// Empty extents contribute no bytes. Skipping them
					// explicitly (rather than letting the span loop fall
					// through) keeps the planner consistent with
					// mergeRanges, which now drops zero-length ranges on
					// every path, and with Verify, which rejects them.
					continue
				}
				if si = findSlotRange(layout, e.Addr, si); si < 0 {
					continue // VMA unmapped since this delta: stale data
				}
				for off := 0; off < len(e.Data); {
					a := e.Addr + mem.Addr(off)
					if si = findSlotRange(layout, a, si); si < 0 {
						return fmt.Errorf("checkpoint: restore extent %#x: %w",
							uint64(e.Addr), &mem.Fault{Addr: a, Access: mem.AccessWrite})
					}
					n := mem.PageSize - a.Offset()
					if rem := len(e.Data) - off; n > rem {
						n = rem
					}
					r := &layout[si]
					visit(r.base+int((a-r.start)>>mem.PageShift), pageSpan{off: a.Offset(), data: e.Data[off : off+n]})
					off += n
				}
			}
		}
	}
	return nil
}

// onPlan, when a test sets it, is called on every planReplay call, so
// the test can pin how many times a path plans a chain.
var onPlan func()

// planReplay resolves chain (oldest-first, head full — the caller has
// verified this) into per-page jobs against the leaf image's layout, in
// time linear in the spans and the mapped pages: it counts each page
// slot's spans, turns the counts into each slot's place in one span
// array, places the spans there in chain order, prunes each page's
// spans and packs the kept ones. No map, no per-page allocation and no
// comparison sort.
func planReplay(chain []*Image) (replayPlan, error) {
	if onPlan != nil {
		onPlan()
	}
	layout, slots, err := leafSlots(chain[len(chain)-1])
	if err != nil {
		return replayPlan{}, err
	}
	next := make([]int32, slots)
	if err := eachSpan(chain, layout, func(slot int, _ pageSpan) { next[slot]++ }); err != nil {
		return replayPlan{}, err
	}
	total, jobs := int32(0), 0
	for s, n := range next {
		if n > 0 {
			jobs++
		}
		next[s] = total
		total += n
	}
	// next[s] is now where slot s's next span goes; after the placing
	// pass it is where slot s ends, and so where slot s+1 begins.
	all := make([]pageSpan, total)
	// The counting pass met every fault this pass could.
	_ = eachSpan(chain, layout, func(slot int, sp pageSpan) {
		all[next[slot]] = sp
		next[slot]++
	})

	plan := replayPlan{jobs: make(pageJobs, 0, jobs)}
	kept, lo := 0, int32(0)
	for _, r := range layout {
		for s, pn := r.base, r.start.Page(); pn < r.end.Page(); s, pn = s+1, pn+1 {
			hi := next[s]
			if hi == lo {
				continue
			}
			spans, pruned := pruneSpans(all[lo:hi])
			lo = hi
			plan.pruned += pruned
			for _, sp := range spans {
				plan.copied += len(sp.data)
			}
			kept += len(spans)
			plan.jobs = append(plan.jobs, pageJob{page: pn, spans: spans})
		}
	}
	// Pack the kept spans, so the pruned ones' image bytes die with all.
	plan.spans = make([]pageSpan, 0, kept)
	for i := range plan.jobs {
		j := &plan.jobs[i]
		n := len(plan.spans)
		plan.spans = append(plan.spans, j.spans...)
		j.spans = plan.spans[n:len(plan.spans):len(plan.spans)]
	}
	return plan, nil
}

// pruneSpans drops spans wholly covered by later spans of the same page
// (last writer wins, so they could never contribute a byte). It returns
// the kept spans, in chain order and compacted in place at the end of
// spans, and the byte count dropped. Partially covered spans are kept
// whole: in-order application resolves the overlap, pruning is only the
// optimization for the common full-page-overwrite case, which is its
// fast path.
func pruneSpans(spans []pageSpan) ([]pageSpan, int) {
	last := len(spans) - 1
	pruned := 0
	if s := spans[last]; s.off == 0 && len(s.data) == mem.PageSize {
		for _, s := range spans[:last] {
			pruned += len(s.data)
		}
		return spans[last:], pruned
	}
	type iv struct{ lo, hi int }
	var buf [16]iv
	covered := buf[:0]
	kept := len(spans)
	for i := last; i >= 0; i-- {
		s := spans[i]
		lo, hi := s.off, s.off+len(s.data)
		hidden := false
		for _, c := range covered {
			if c.lo <= lo && hi <= c.hi {
				hidden = true
				break
			}
		}
		if hidden {
			pruned += len(s.data)
			continue
		}
		kept--
		spans[kept] = s
		// Merge [lo,hi) into the covered set.
		merged := iv{lo, hi}
		out := covered[:0]
		for _, c := range covered {
			if c.hi < merged.lo || c.lo > merged.hi {
				out = append(out, c)
				continue
			}
			if c.lo < merged.lo {
				merged.lo = c.lo
			}
			if c.hi > merged.hi {
				merged.hi = c.hi
			}
		}
		covered = append(out, merged)
	}
	return spans[kept:], pruned
}

// zeroPage is never written: finalPieces serves holes from it.
var zeroPage [mem.PageSize]byte

// finalPieces appends a page's final bytes, its spans applied in chain
// order over zeros, to pieces: in page order, as slices of the spans
// and of zeroPage. A page written by one full-page span is one piece.
func finalPieces(pieces [][]byte, spans []pageSpan) [][]byte {
	for pos := 0; pos < mem.PageSize; {
		// The last span covering pos writes it, up to its end or until
		// a later span starts; a hole runs until any span starts.
		w := len(spans) - 1
		for ; w >= 0; w-- {
			if s := spans[w]; s.off <= pos && pos < s.off+len(s.data) {
				break
			}
		}
		end := mem.PageSize
		if w >= 0 {
			end = spans[w].off + len(spans[w].data)
		}
		for _, s := range spans[w+1:] {
			if s.off > pos && s.off < end {
				end = s.off
			}
		}
		if w < 0 {
			pieces = append(pieces, zeroPage[:end-pos])
		} else {
			s := spans[w]
			pieces = append(pieces, s.data[pos-s.off:end-s.off])
		}
		pos = end
	}
	return pieces
}

// applyPlan writes every job's spans into the address space through
// mem.AddressSpace.WritePages: the pages are materialized sequentially
// (the address space's page maps and version clock are not
// goroutine-safe), then workers shards give them their bytes. A page
// still demand-zero and written by one full-page span borrows that span
// of the image, copied only when the page is first written; one with
// several pieces gets a frame built from its final bytes, each byte
// copied once and never zero-filled first; a page that already has a
// frame gets its spans in chain order. The simulated cost is billed by
// the caller, as a full copy either way; goroutines here only move
// bytes, like the capture path's fillExtentsParallel.
func applyPlan(as *mem.AddressSpace, plan *replayPlan, workers int) error {
	if n, err := as.WritePages(plan.jobs, workers); err != nil {
		return fmt.Errorf("checkpoint: restore page %#x: %w", uint64(plan.jobs[n].page.Base()), err)
	}
	return nil
}

// applySpans replays one page's writes in chain order.
func applySpans(buf []byte, spans []pageSpan) {
	for _, s := range spans {
		copy(buf[s.off:], s.data)
	}
}

// RestoreCost estimates the simulated time to copy n replayed bytes back
// into memory with a workers-wide pool — the restore-side mirror of
// EncodeCost, exported for orchestration layers that model recovery
// latency (the supervisor's restore.latency histogram).
func RestoreCost(n, workers int) simtime.Duration { return encodeCost(n, workers) }

// ReplayBytes returns the bytes a restore of chain will actually copy
// after per-page last-writer-wins pruning. The chain must begin with a
// full image.
func ReplayBytes(chain []*Image) (int, error) {
	if len(chain) == 0 {
		return 0, nil
	}
	plan, err := planReplay(chain)
	if err != nil {
		return 0, err
	}
	return plan.copied, nil
}
