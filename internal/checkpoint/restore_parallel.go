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
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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

// replayPlan is a chain resolved against its leaf memory layout.
type replayPlan struct {
	jobs []pageJob
	// copied is what a replay of the plan moves; pruned counts bytes
	// dropped because a later delta fully overwrote them before any
	// worker was asked to copy them.
	copied int
	pruned int
}

// planReplay resolves chain (oldest-first, head full — the caller has
// verified this) into per-page jobs against the leaf image's layout.
// Extents whose start address is no longer mapped in the leaf are
// skipped, matching the sequential semantics; an extent that starts
// mapped but runs off the layout fails exactly like WriteDirect would.
func planReplay(chain []*Image) (replayPlan, error) {
	var plan replayPlan
	leaf := chain[len(chain)-1]
	secs := make([]VMASection, len(leaf.VMAs))
	copy(secs, leaf.VMAs)
	sort.Slice(secs, func(i, j int) bool { return secs[i].Start < secs[j].Start })
	mapped := func(a mem.Addr) bool {
		i := sort.Search(len(secs), func(i int) bool { return secs[i].Start+mem.Addr(secs[i].Length) > a })
		return i < len(secs) && a >= secs[i].Start
	}

	byPage := make(map[mem.PageNum]*pageJob)
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
				if !mapped(e.Addr) {
					continue // VMA unmapped since this delta: stale data
				}
				for off := 0; off < len(e.Data); {
					a := e.Addr + mem.Addr(off)
					if !mapped(a) {
						return plan, fmt.Errorf("checkpoint: restore extent %#x: %w",
							uint64(e.Addr), &mem.Fault{Addr: a, Access: mem.AccessWrite})
					}
					n := mem.PageSize - a.Offset()
					if rem := len(e.Data) - off; n > rem {
						n = rem
					}
					pn := a.Page()
					j := byPage[pn]
					if j == nil {
						j = &pageJob{page: pn}
						byPage[pn] = j
					}
					j.spans = append(j.spans, pageSpan{off: a.Offset(), data: e.Data[off : off+n]})
					off += n
				}
			}
		}
	}

	plan.jobs = make([]pageJob, 0, len(byPage))
	for _, j := range byPage {
		pruned := pruneSpans(j)
		plan.pruned += pruned
		for _, s := range j.spans {
			plan.copied += len(s.data)
		}
		plan.jobs = append(plan.jobs, *j)
	}
	sort.Slice(plan.jobs, func(i, j int) bool { return plan.jobs[i].page < plan.jobs[j].page })
	return plan, nil
}

// pruneSpans drops spans wholly covered by later spans of the same page
// (last writer wins, so they could never contribute a byte), returning
// the byte count dropped. Partially covered spans are kept whole:
// in-order application resolves the overlap, pruning is only the
// optimization for the common full-page-overwrite case.
func pruneSpans(j *pageJob) int {
	if len(j.spans) < 2 {
		return 0
	}
	type iv struct{ lo, hi int }
	var covered []iv
	keep := make([]bool, len(j.spans))
	pruned := 0
	for i := len(j.spans) - 1; i >= 0; i-- {
		s := j.spans[i]
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
		keep[i] = true
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
	kept := j.spans[:0]
	for i, s := range j.spans {
		if keep[i] {
			kept = append(kept, s)
		}
	}
	j.spans = kept
	return pruned
}

// applyPlan writes every job's spans into the address space. Pages are
// materialized sequentially first, in one PageBuffers call — the
// address space's page maps and version clock are not goroutine-safe,
// and the pages still demand-zero share one frame allocation — and only
// the byte copies into the resulting disjoint buffers fan out across the
// pool. The simulated cost is billed by the caller; goroutines here only
// move bytes, like the capture path's fillExtentsParallel.
func applyPlan(as *mem.AddressSpace, plan *replayPlan, workers int) error {
	pns := make([]mem.PageNum, len(plan.jobs))
	for i := range plan.jobs {
		pns[i] = plan.jobs[i].page
	}
	bufs, err := as.PageBuffers(pns)
	if err != nil {
		return fmt.Errorf("checkpoint: restore page %#x: %w", uint64(pns[len(bufs)].Base()), err)
	}
	if workers > len(plan.jobs) {
		workers = len(plan.jobs)
	}
	if workers <= 1 {
		for i := range plan.jobs {
			applySpans(bufs[i], plan.jobs[i].spans)
		}
		return nil
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(plan.jobs) {
					return
				}
				applySpans(bufs[i], plan.jobs[i].spans)
			}
		}()
	}
	wg.Wait()
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
