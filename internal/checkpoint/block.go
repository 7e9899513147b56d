package checkpoint

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"repro/internal/costmodel"
	"repro/internal/simos/kernel"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
)

// BlockTracker is sub-page incremental checkpointing by block hashing
// (§3): memory is divided into fixed-size blocks whose checksums are
// compared against the previous epoch's, and a block whose hash is new or
// differs is reported changed. Hashing moves the cost from every write to
// checkpoint time, and makes correctness probabilistic: a block whose
// change collides in the hash is silently missed. Two choices separate
// the schemes, and each constructor fixes them:
//
//   - the pages it hashes: every resident page (probabilistic
//     checkpointing [23], NewHashTracker), or only those a kernel
//     write-protect tracker saw written (§4.1 page protection narrowing
//     the hash work, NewHybridTracker);
//   - the block size: fixed, or re-picked after each Collect from the
//     change density it saw (the adaptive refinement of [1],
//     NewAdaptiveTracker).
type BlockTracker struct {
	name  string
	label string // ledger category of the hash charge
	p     *proc.Process
	read  func(mem.Addr, []byte) error
	bill  costmodel.Biller
	cm    *costmodel.Model
	page  *WPTracker // nil: hash every resident page
	block int
	sizes []int // adaptive candidate block sizes, ascending; nil: fixed
	bits  int   // modelled checksum width

	hashes map[mem.Addr]uint64
	stats  TrackerStats
	armed  bool
}

func checkBlockSize(n int) error {
	if n <= 0 || n > mem.PageSize || mem.PageSize%n != 0 {
		return fmt.Errorf("checkpoint: block size %d must divide the page size", n)
	}
	return nil
}

// NewHashTracker builds a probabilistic tracker [23] that hashes every
// resident block of blockSize bytes, read through acc. hashBits models
// the checksum width of [23] (their implementation used small
// checksums; the tracker computes a full FNV-64 so simulation is exact,
// and exposes the analytic miss probability instead).
func NewHashTracker(acc Accessor, bill costmodel.Biller, cm *costmodel.Model, blockSize, hashBits int) (*BlockTracker, error) {
	if err := checkBlockSize(blockSize); err != nil {
		return nil, err
	}
	if hashBits <= 0 || hashBits > 64 {
		hashBits = 64
	}
	return &BlockTracker{
		name: fmt.Sprintf("hash-%dB", blockSize), label: "block-hash",
		p: acc.Process(), read: acc.ReadRange, bill: bill, cm: cm,
		block: blockSize, bits: hashBits,
	}, nil
}

// NewHybridTracker builds a tracker that composes the paper's two
// incremental techniques: kernel write protection finds the dirty pages
// at one fault per first touch (§4.1), and block hashing narrows each to
// its changed blocks (§3, [23]). It hashes only dirty pages, not the
// whole resident set, and ships less than a page tracker for small
// scattered writes. Blocks of a page never hashed before report in full.
func NewHybridTracker(k *kernel.Kernel, p *proc.Process, bill costmodel.Biller, blockSize int) (*BlockTracker, error) {
	if err := checkBlockSize(blockSize); err != nil {
		return nil, err
	}
	return &BlockTracker{
		name: fmt.Sprintf("hybrid-%dB", blockSize), label: "hybrid-hash",
		p: p, read: p.AS.ReadDirect, bill: bill, cm: k.CM,
		page: NewKernelWPTracker(k, p), block: blockSize, bits: 64,
	}, nil
}

// NewAdaptiveTracker builds a hash tracker that re-picks its block size
// after each Collect among sizes (default 256 B–4 KiB), starting at the
// largest; see pickSize.
func NewAdaptiveTracker(acc Accessor, bill costmodel.Biller, cm *costmodel.Model, sizes []int) (*BlockTracker, error) {
	if len(sizes) == 0 {
		sizes = []int{256, 512, 1024, 2048, 4096}
	}
	sizes = slices.Clone(sizes)
	slices.Sort(sizes)
	for _, s := range sizes {
		if err := checkBlockSize(s); err != nil {
			return nil, err
		}
	}
	t, err := NewHashTracker(acc, bill, cm, sizes[len(sizes)-1], 64)
	if err != nil {
		return nil, err
	}
	t.name, t.sizes = "adaptive", sizes
	return t, nil
}

// Name implements Tracker.
func (t *BlockTracker) Name() string { return t.name }

// Granularity returns the block size in bytes the next Collect uses.
func (t *BlockTracker) Granularity() int { return t.block }

// Arm implements Tracker. A hash tracker records every resident block's
// hash; a hybrid write-protects, and records a page's hashes when it
// first collects the page dirty.
func (t *BlockTracker) Arm() error {
	var err error
	if t.page != nil {
		err = t.page.Arm()
	} else {
		_, err = t.hashPages(pagesToRanges(residentPages(t.p.AS)))
	}
	if err != nil {
		return err
	}
	t.armed = true
	return nil
}

// Collect implements Tracker: hash the candidate pages, report the
// changed blocks, then let an adaptive tracker re-pick its block size.
func (t *BlockTracker) Collect() ([]Range, error) {
	if !t.armed {
		return nil, fmt.Errorf("checkpoint: %s: Collect before Arm", t.name)
	}
	var pages []Range
	if t.page == nil {
		pages = pagesToRanges(residentPages(t.p.AS))
	} else {
		var err error
		if pages, err = t.page.Collect(); err != nil {
			return nil, err
		}
	}
	out, err := t.hashPages(pages)
	if err != nil || t.sizes == nil {
		return out, err
	}
	changed := 0
	for _, r := range out {
		changed += r.Length
	}
	if best := t.pickSize(changed, int(t.p.AS.ResidentBytes())); best != t.block {
		// Re-hash at the new size so the next Collect diffs like blocks.
		t.block = best
		if _, err := t.hashPages(pages); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// hashPages reads and hashes every block of the page-aligned spans,
// billing the hash per page, and returns the blocks whose hash is new or
// changed as ascending, coalesced ranges. A hash tracker's spans are
// every resident page, so their hashes replace the recorded ones; a
// hybrid's are the dirty pages, whose hashes it updates in place.
func (t *BlockTracker) hashPages(spans []Range) ([]Range, error) {
	prev := t.hashes
	if t.page == nil || prev == nil {
		t.hashes = make(map[mem.Addr]uint64, len(prev))
	}
	buf := make([]byte, t.block)
	h := fnv.New64a()
	var out []Range
	for _, r := range spans {
		for base := r.Addr; base < r.Addr+mem.Addr(r.Length); base += mem.PageSize {
			for a := base; a < base+mem.PageSize; a += mem.Addr(t.block) {
				if err := t.read(a, buf); err != nil {
					return nil, err
				}
				h.Reset()
				h.Write(buf)
				sum := h.Sum64()
				if old, ok := prev[a]; !ok || old != sum {
					if n := len(out); n > 0 && out[n-1].Addr+mem.Addr(out[n-1].Length) == a {
						out[n-1].Length += t.block
					} else {
						out = append(out, Range{Addr: a, Length: t.block})
					}
				}
				t.hashes[a] = sum
			}
			t.stats.HashedBytes += mem.PageSize
			t.bill.Charge(t.cm.Hash(mem.PageSize), t.label)
		}
	}
	return out, nil
}

// pickSize models, for each candidate block size, the cost of the next
// epoch: hashing the resident set (with a fixed per-block overhead, which
// penalizes very fine blocks) plus shipping the expected changed bytes.
// Shipping estimates from the density observed at the current granularity:
// coarser blocks drag more clean bytes along (changed runs inflate to the
// block size); finer blocks trim the clean tail of each dirty block, with
// a conservative floor (alpha) on how much of a dirty block is truly
// modified. When every block was dirty, finer granularity cannot help, so
// only coarser candidates are considered. A 5% hysteresis margin prevents
// oscillation. Dense deltas thus push the block size up and sparse,
// scattered ones pull it down.
func (t *BlockTracker) pickSize(changedBytes, residentBytes int) int {
	if residentBytes == 0 || changedBytes == 0 {
		return t.block
	}
	const (
		alpha        = 0.25 // assumed truly-dirty fraction of a dirty block
		perBlockSecs = 50e-9
		hysteresis   = 0.95
	)
	g := float64(t.block)
	c := float64(changedBytes)
	density := c / float64(residentBytes)

	cost := func(s int) float64 {
		fs := float64(s)
		var ship float64
		if fs >= g {
			ship = math.Min(float64(residentBytes), c*fs/g)
		} else {
			ship = c * (alpha + (1-alpha)*fs/g)
		}
		blocks := float64(residentBytes) / fs
		return t.cm.Hash(residentBytes).Seconds() + blocks*perBlockSecs + t.cm.DiskStream(int(ship)).Seconds()
	}

	bestSize := t.block
	bestCost := cost(bestSize)
	for _, s := range t.sizes {
		if s == t.block {
			continue
		}
		if density >= 0.9 && s < t.block {
			continue // everything is dirty: finer blocks cannot win
		}
		if cs := cost(s); cs < hysteresis*bestCost {
			bestCost, bestSize = cs, s
		}
	}
	return bestSize
}

// MissProbability returns the analytic probability that at least one of n
// changed blocks is missed with the modelled hash width.
func (t *BlockTracker) MissProbability(nChanged int) float64 {
	pMiss := math.Pow(2, -float64(t.bits))
	return 1 - math.Pow(1-pMiss, float64(nChanged))
}

// Stats implements Tracker; a hybrid adds its page tracker's faults and
// protection counts.
func (t *BlockTracker) Stats() TrackerStats {
	if t.page == nil {
		return t.stats
	}
	s := t.page.Stats()
	s.HashedBytes += t.stats.HashedBytes
	return s
}

// Close implements Tracker; a hybrid also restores the page protections.
func (t *BlockTracker) Close() {
	if t.page != nil {
		t.page.Close()
	}
	t.hashes, t.armed = nil, false
}
