// Chain folding: collapse a verified restore chain into one full image
// that restores byte-identically to replaying the whole chain. This is
// the image-format half of background chain compaction — the storage
// layer owns the durability protocol (atomic replace under the leaf's
// name, GC only after the folded image is durable; see
// storage.CompactChain) but cannot decode images, so the fold itself
// lives here and is handed across as a callback.

package checkpoint

import (
	"fmt"
	"slices"

	"repro/internal/simos/mem"
)

// FoldChain merges chain (oldest-first) into a single full image with
// the leaf's identity and metadata. The folded image keeps the leaf's
// Epoch, PID and Seq, so its ObjectName is the leaf's own name: deltas
// later chained onto the leaf still find their parent, and a chain walk
// from them now terminates here. Memory contents are the chain's
// per-page last-writer-wins resolution restricted to the leaf's layout —
// exactly what Restore computes — so restoring the folded image is
// byte-identical to replaying the chain it replaces.
//
// The folded image is laid out in one buffer sized for its encoding,
// and the chain's spans are copied straight into its extents' slots, so
// FoldEncodedChain only has to seal that buffer. Its extents alias that
// buffer (capacity-clipped), and a folded image is read-only, like a
// decoded or captured one.
func FoldChain(chain []*Image) (*Image, error) {
	folded, _, err := foldChain(chain)
	return folded, err
}

// foldChain is FoldChain, also returning the folded image's unsealed
// layout buffer.
func foldChain(chain []*Image) (*Image, []byte, error) {
	if err := VerifyChain(chain); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: fold: %w", err)
	}
	leaf := chain[len(chain)-1]
	folded := *leaf
	folded.Mode, folded.Parent = ModeFull, ""
	folded.unsealed = nil // the leaf's buffer, if it has one, is not ours

	plan, err := planReplay(chain)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: fold: %w", err)
	}

	// The plan's jobs ascend by page, so one sorted merge of each page's
	// covered byte intervals yields the runs in address order. Extents
	// cover exactly those bytes: uncaptured bytes of a mapped page are
	// zero after either restore path, so covering more would change
	// nothing and covering less would lose a write.
	type run struct {
		addr   mem.Addr
		lo, hi int        // the covered interval within the page
		spans  []pageSpan // the page's writes, in chain order
	}
	var runs []run
	for _, j := range plan.jobs {
		page := len(runs)
		for _, s := range j.spans {
			runs = append(runs, run{j.page.Base() + mem.Addr(s.off), s.off, s.off + len(s.data), j.spans})
		}
		slices.SortFunc(runs[page:], func(a, b run) int { return a.lo - b.lo })
		n := page
		for _, r := range runs[page+1:] {
			if r.lo <= runs[n].hi { // spans may overlap arbitrarily
				runs[n].hi = max(runs[n].hi, r.hi)
			} else {
				n++
				runs[n] = r
			}
		}
		runs = runs[:n+1]
	}

	// Size every extent first — the runs that follow on without a gap, up
	// to the section's end — then lay the image out and copy the spans
	// into the extents' slots. The leaf's sections ascend (Verify), so
	// one cursor walks them.
	secs := slices.Clone(leaf.VMAs)
	for i := range secs {
		secs[i].Extents = nil
	}
	type slot struct{ sec, ext, lo, hi int } // extent ext of section sec holds runs[lo:hi]
	var slots []slot
	exts := make([][]Range, len(secs))
	si := 0
	for i := 0; i < len(runs); {
		start := runs[i].addr
		for si < len(secs) && start >= secs[si].Start+mem.Addr(secs[si].Length) {
			si++
		}
		if si == len(secs) || start < secs[si].Start {
			// planReplay only plans pages mapped in the leaf layout.
			return nil, nil, fmt.Errorf("checkpoint: fold: run %#x outside leaf layout", uint64(start))
		}
		end := secs[si].Start + mem.Addr(secs[si].Length)
		n, j := 0, i
		for ; j < len(runs) && runs[j].addr == start+mem.Addr(n) && runs[j].addr < end; j++ {
			n += runs[j].hi - runs[j].lo
		}
		slots = append(slots, slot{si, len(exts[si]), i, j})
		exts[si] = append(exts[si], Range{Addr: start, Length: n})
		i = j
	}
	folded.VMAs = secs
	buf := folded.layout(exts)
	for _, sl := range slots {
		e := folded.VMAs[sl.sec].Extents[sl.ext]
		for _, r := range runs[sl.lo:sl.hi] {
			dst := e.Data[r.addr-e.Addr:]
			// Every span lies wholly inside one covered interval, and
			// applying them in chain order makes the last writer win.
			for _, s := range r.spans {
				if r.lo <= s.off && s.off < r.hi {
					copy(dst[s.off-r.lo:], s.data)
				}
			}
		}
	}

	if err := folded.Verify(); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: fold: %w", err)
	}
	return &folded, buf, nil
}

// FoldEncodedChain decodes an encoded chain (oldest-first), folds it,
// and seals the folded image's layout buffer. It is
// storage.FoldFunc-shaped: the storage-side compactor works on opaque
// objects and takes the image knowledge it needs through this callback
// (the cluster wires the two together).
func FoldEncodedChain(blobs [][]byte) ([]byte, error) {
	chain := make([]*Image, len(blobs))
	for i, b := range blobs {
		img, err := Decode(b)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: fold link %d: %w", i, err)
		}
		chain[i] = img
	}
	folded, buf, err := foldChain(chain)
	if err != nil {
		return nil, err
	}
	if err := folded.seal(buf, 1); err != nil {
		return nil, err
	}
	return buf, nil
}
