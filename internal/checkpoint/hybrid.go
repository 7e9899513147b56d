package checkpoint

import (
	"fmt"
	"hash/fnv"

	"repro/internal/costmodel"
	"repro/internal/simos/kernel"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
)

// HybridTracker composes the two incremental techniques the paper
// discusses: kernel write-protection finds the dirty *pages* at one fault
// per first touch (§4.1), and block hashing then narrows each dirty page
// to its changed sub-page *blocks* (§3, [23]). Compared to a pure hash
// tracker it only hashes dirty pages (not the whole resident set);
// compared to a pure page tracker it ships less data for small scattered
// writes. This is the combination the adaptive scheme of [1] builds on.
type HybridTracker struct {
	K         *kernel.Kernel
	P         *proc.Process
	Bill      costmodel.Biller
	BlockSize int

	page      *WPTracker
	prevHash  map[mem.Addr]uint64
	stats     TrackerStats
	armed     bool
	firstDone bool
}

// NewHybridTracker builds a hybrid tracker with the given sub-page block
// size.
func NewHybridTracker(k *kernel.Kernel, p *proc.Process, bill costmodel.Biller, blockSize int) (*HybridTracker, error) {
	if blockSize <= 0 || blockSize > mem.PageSize || mem.PageSize%blockSize != 0 {
		return nil, fmt.Errorf("checkpoint: hybrid block size %d must divide the page size", blockSize)
	}
	return &HybridTracker{
		K: k, P: p, Bill: bill, BlockSize: blockSize,
		page:     NewKernelWPTracker(k, p),
		prevHash: make(map[mem.Addr]uint64),
	}, nil
}

// Name implements Tracker.
func (t *HybridTracker) Name() string { return fmt.Sprintf("hybrid-%dB", t.BlockSize) }

// Granularity implements Tracker.
func (t *HybridTracker) Granularity() int { return t.BlockSize }

// Arm implements Tracker.
func (t *HybridTracker) Arm() error {
	if err := t.page.Arm(); err != nil {
		return err
	}
	t.armed = true
	return nil
}

// hashPage hashes one page's blocks into out, charging the hash cost.
func (t *HybridTracker) hashPage(base mem.Addr, out map[mem.Addr]uint64) error {
	buf := make([]byte, t.BlockSize)
	for off := 0; off < mem.PageSize; off += t.BlockSize {
		if err := t.P.AS.ReadDirect(base+mem.Addr(off), buf); err != nil {
			return err
		}
		h := fnv.New64a()
		h.Write(buf)
		out[base+mem.Addr(off)] = h.Sum64()
	}
	t.stats.HashedBytes += mem.PageSize
	t.Bill.Charge(t.K.CM.Hash(mem.PageSize), "hybrid-hash")
	return nil
}

// Collect implements Tracker: take the page tracker's dirty set, hash
// only those pages, and report the blocks whose hashes changed. Blocks of
// pages never seen before report in full.
func (t *HybridTracker) Collect() ([]Range, error) {
	if !t.armed {
		return nil, fmt.Errorf("checkpoint: %s: Collect before Arm", t.Name())
	}
	pageRanges, err := t.page.Collect()
	if err != nil {
		return nil, err
	}
	var out []Range
	for _, pr := range pageRanges {
		for off := 0; off < pr.Length; off += mem.PageSize {
			base := pr.Addr + mem.Addr(off)
			cur := make(map[mem.Addr]uint64, mem.PageSize/t.BlockSize)
			if err := t.hashPage(base, cur); err != nil {
				return nil, err
			}
			for a := base; a < base+mem.PageSize; a += mem.Addr(t.BlockSize) {
				h := cur[a]
				if ph, seen := t.prevHash[a]; !t.firstDone || !seen || ph != h {
					if n := len(out); n > 0 && out[n-1].Addr+mem.Addr(out[n-1].Length) == a {
						out[n-1].Length += t.BlockSize
					} else {
						out = append(out, Range{Addr: a, Length: t.BlockSize})
					}
				}
				t.prevHash[a] = h
			}
		}
	}
	t.firstDone = true
	return out, nil
}

// Stats implements Tracker, merging the page tracker's fault counters
// with the hashing counters.
func (t *HybridTracker) Stats() TrackerStats {
	s := t.page.Stats()
	s.HashedBytes += t.stats.HashedBytes
	return s
}

// Close implements Tracker.
func (t *HybridTracker) Close() {
	t.page.Close()
	t.prevHash = nil
	t.armed = false
}

var _ Tracker = (*HybridTracker)(nil)
