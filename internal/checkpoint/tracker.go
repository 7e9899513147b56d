package checkpoint

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/simos/kernel"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
)

// Range is a changed span of the tracked address space.
type Range struct {
	Addr   mem.Addr
	Length int
}

// TrackerStats accumulates the overhead a tracker imposed.
type TrackerStats struct {
	// Faults is the number of protection faults taken for tracking.
	Faults uint64
	// ProtectedPages is the cumulative number of PTEs write-protected.
	ProtectedPages uint64
	// HashedBytes is the cumulative bytes checksummed (hash trackers).
	HashedBytes uint64
	// RuntimeOverhead is tracking cost charged outside checkpoint time
	// (per-write faults), the overhead incremental schemes impose on the
	// application between checkpoints.
	RuntimeOverhead simtime.Duration
	// ExcludedBytes is the cumulative payload withheld from deltas by
	// liveness exclusion and declared exclude regions.
	ExcludedBytes uint64
}

// Tracker identifies the memory modified since the last collection — the
// heart of incremental checkpointing (§1, §3, §4).
type Tracker interface {
	// Name labels the tracker for experiment output.
	Name() string
	// Granularity is the tracking unit in bytes.
	Granularity() int
	// Arm starts the first epoch. Collect implicitly re-arms.
	Arm() error
	// Collect returns the ranges modified since Arm/the last Collect.
	Collect() ([]Range, error)
	// Stats returns cumulative overhead counters.
	Stats() TrackerStats
	// Close detaches the tracker from the process.
	Close()
}

// pagesToRanges converts a sorted page list to coalesced ranges.
func pagesToRanges(pages []mem.PageNum) []Range {
	if len(pages) == 0 {
		return nil
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	var out []Range
	start := pages[0]
	prev := pages[0]
	for _, pn := range pages[1:] {
		if pn == prev {
			continue
		}
		if pn == prev+1 {
			prev = pn
			continue
		}
		out = append(out, Range{Addr: start.Base(), Length: int(prev-start+1) * mem.PageSize})
		start, prev = pn, pn
	}
	out = append(out, Range{Addr: start.Base(), Length: int(prev-start+1) * mem.PageSize})
	return out
}

// trackableVMAs returns the regions worth tracking (writable data).
func trackableVMAs(as *mem.AddressSpace) []*mem.VMA {
	var out []*mem.VMA
	for _, v := range as.VMAs() {
		if v.Kind == mem.KindText {
			continue // read-only code never dirties
		}
		out = append(out, v)
	}
	return out
}

// residentPages returns every resident page of the trackable regions.
func residentPages(as *mem.AddressSpace) []mem.PageNum {
	var pages []mem.PageNum
	for _, pi := range as.ResidentPages() {
		if pi.VMA.Kind != mem.KindText {
			pages = append(pages, pi.Num)
		}
	}
	return pages
}

// FullTracker reports every resident page every time: the no-optimization
// baseline (PsncR/C "does not perform any data optimization").
type FullTracker struct {
	AS *mem.AddressSpace
}

// Name implements Tracker.
func (t *FullTracker) Name() string { return "full" }

// Granularity implements Tracker.
func (t *FullTracker) Granularity() int { return mem.PageSize }

// Arm implements Tracker.
func (t *FullTracker) Arm() error { return nil }

// Collect implements Tracker.
func (t *FullTracker) Collect() ([]Range, error) { return pagesToRanges(residentPages(t.AS)), nil }

// Stats implements Tracker.
func (t *FullTracker) Stats() TrackerStats { return TrackerStats{} }

// Close implements Tracker.
func (t *FullTracker) Close() {}

// protection binds a page tracker to the level it runs at, the one
// thing that separates §3's user-level incremental checkpointing from
// §4's kernel-level kind: how a whole VMA is reprotected, and what
// reopening one page inside the fault handler costs. Each binding
// charges under its tracker's ledger labels.
type protection interface {
	// protect sets v's protection; it returns the pages reprotected.
	protect(v *mem.VMA, prot mem.Prot) (int, error)
	// release restores v's protection as a WPTracker detaches.
	release(v *mem.VMA, prot mem.Prot)
	// reopen fixes one faulting page; it returns what the fault cost.
	reopen(base mem.Addr, prot mem.Prot) simtime.Duration
}

// kernelProtection edits the page tables directly (§4): no syscall, a
// per-PTE cost, and one kernel fault plus a PTE fix per first touch.
type kernelProtection struct {
	k                        *kernel.Kernel
	as                       *mem.AddressSpace
	protectLabel, faultLabel string
}

func newKernelProtection(k *kernel.Kernel, p *proc.Process, label string) kernelProtection {
	return kernelProtection{k: k, as: p.AS, protectLabel: label + "-protect", faultLabel: label + "-fault"}
}

func (b kernelProtection) protect(v *mem.VMA, prot mem.Prot) (int, error) {
	n := b.as.ProtectVMA(v, prot)
	b.k.Charge(simtime.Duration(n)*b.k.CM.MprotectPerPage, b.protectLabel)
	return n, nil
}

// release is free: undoing the PTE edits is part of detaching.
func (b kernelProtection) release(v *mem.VMA, prot mem.Prot) { b.as.ProtectVMA(v, prot) }

func (b kernelProtection) reopen(base mem.Addr, prot mem.Prot) simtime.Duration {
	d := b.k.CM.PageFault + b.k.CM.MprotectPerPage
	b.k.Charge(d, b.faultLabel)
	_, _ = b.as.Protect(base, mem.PageSize, prot)
	return d
}

// userProtection pays the user-level price (§3): an mprotect syscall per
// VMA, and per first touch a kernel fault, a SIGSEGV delivered to a user
// handler, an mprotect syscall to reopen the page, and sigreturn.
type userProtection struct {
	ctx                          *kernel.Context
	sigsegvLabel, sigreturnLabel string
}

func newUserProtection(ctx *kernel.Context, label string) userProtection {
	return userProtection{ctx: ctx, sigsegvLabel: label + "-sigsegv", sigreturnLabel: label + "-sigreturn"}
}

func (b userProtection) protect(v *mem.VMA, prot mem.Prot) (int, error) {
	if err := b.ctx.Mprotect(v.Start, v.Length, prot); err != nil {
		return 0, err
	}
	return v.NumPages(), nil
}

func (b userProtection) release(v *mem.VMA, prot mem.Prot) { _, _ = b.protect(v, prot) }

func (b userProtection) reopen(base mem.Addr, prot mem.Prot) simtime.Duration {
	k := b.ctx.K
	before := k.Now()
	k.Charge(k.CM.PageFault+k.CM.SignalDeliver, b.sigsegvLabel)
	_ = b.ctx.Mprotect(base, mem.PageSize, prot)
	k.Charge(k.CM.SignalReturn, b.sigreturnLabel)
	return k.Now().Sub(before)
}

// passFault hands a fault the tracker does not own to the handler it
// displaced, or signals the process when there is none.
func passFault(prev mem.FaultHandler, f *mem.Fault) mem.Disposition {
	if prev != nil {
		return prev(f)
	}
	return mem.FaultSignal
}

// pageTracker is what the two page-protection trackers share: the
// address space, the protection binding, the fault handler the tracker
// displaced, and the epoch state. Name, Granularity and Stats implement
// Tracker for both.
type pageTracker struct {
	as           *mem.AddressSpace
	name         string
	bind         protection
	dirty        map[mem.PageNum]bool // written this epoch
	prev         mem.FaultHandler
	stats        TrackerStats
	armed        bool
	firstCollect bool
}

func newPageTracker(as *mem.AddressSpace, name string, bind protection) pageTracker {
	return pageTracker{as: as, name: name, bind: bind, dirty: make(map[mem.PageNum]bool)}
}

// Name implements Tracker.
func (t *pageTracker) Name() string { return t.name }

// Granularity implements Tracker.
func (t *pageTracker) Granularity() int { return mem.PageSize }

// Stats implements Tracker.
func (t *pageTracker) Stats() TrackerStats { return t.stats }

// attach installs h as the fault handler on the first Arm; the first
// collection after it returns everything resident.
func (t *pageTracker) attach(h mem.FaultHandler) {
	if !t.armed {
		t.prev = t.as.SetFaultHandler(h)
		t.armed = true
		t.firstCollect = true
	}
}

// epochPages returns the pages a collection starts from: everything
// resident on the first collection after attaching (there is no prior
// epoch to diff against), else the pages dirtied this epoch.
func (t *pageTracker) epochPages() []mem.PageNum {
	if t.firstCollect {
		t.firstCollect = false
		return residentPages(t.as)
	}
	pages := make([]mem.PageNum, 0, len(t.dirty))
	for pn := range t.dirty {
		pages = append(pages, pn)
	}
	return pages
}

// protectAll reprotects every trackable VMA v to prot(v).
func (t *pageTracker) protectAll(prot func(v *mem.VMA) mem.Prot) error {
	for _, v := range trackableVMAs(t.as) {
		n, err := t.bind.protect(v, prot(v))
		if err != nil {
			return err
		}
		t.stats.ProtectedPages += uint64(n)
	}
	return nil
}

// WPTracker is the write-protect incremental tracker: each epoch it
// write-protects the trackable pages, marks a page dirty on its first
// write fault and reopens it for writing. Its protection binding sets
// the price. The kernel tracker (§4) edits PTEs without a syscall and
// pays one kernel fault per first touch; the user tracker (§3) pays
// mprotect syscalls and a full SIGSEGV round trip, the expensive path
// the paper contrasts with kernel fault handling.
type WPTracker struct{ pageTracker }

// NewKernelWPTracker attaches a kernel write-protection tracker to p.
func NewKernelWPTracker(k *kernel.Kernel, p *proc.Process) *WPTracker {
	return &WPTracker{newPageTracker(p.AS, "kernel-wp", newKernelProtection(k, p, "kwp"))}
}

// NewUserWPTracker attaches a user-level mprotect/SIGSEGV tracker.
func NewUserWPTracker(ctx *kernel.Context) *WPTracker {
	return &WPTracker{newPageTracker(ctx.P.AS, "user-wp", newUserProtection(ctx, "uwp"))}
}

// Arm implements Tracker.
func (t *WPTracker) Arm() error {
	t.attach(t.onFault)
	return t.protectAll(readOnly)
}

// readOnly is WPTracker's epoch protection: v's own, minus write.
func readOnly(v *mem.VMA) mem.Prot { return v.Prot &^ mem.ProtWrite }

func (t *WPTracker) onFault(f *mem.Fault) mem.Disposition {
	if f.Access != mem.AccessWrite || f.VMA == nil || f.VMA.Kind == mem.KindText {
		return passFault(t.prev, f)
	}
	t.dirty[f.Addr.Page()] = true
	t.stats.Faults++
	t.stats.RuntimeOverhead += t.bind.reopen(f.Addr.Page().Base(), f.VMA.Prot|mem.ProtWrite)
	return mem.FaultRetry
}

// Collect implements Tracker.
func (t *WPTracker) Collect() ([]Range, error) {
	if !t.armed {
		return nil, fmt.Errorf("checkpoint: %s: Collect before Arm", t.name)
	}
	out := pagesToRanges(t.epochPages())
	t.dirty = make(map[mem.PageNum]bool)
	if err := t.protectAll(readOnly); err != nil {
		return nil, err
	}
	return out, nil
}

// Close implements Tracker: restores protections and the fault handler.
func (t *WPTracker) Close() {
	if !t.armed {
		return
	}
	for _, v := range trackableVMAs(t.as) {
		t.bind.release(v, v.Prot|mem.ProtWrite)
	}
	t.as.SetFaultHandler(t.prev)
	t.armed = false
}

// HashTracker implements probabilistic checkpointing [23]: instead of
// write protection, memory is divided into fixed-size blocks whose
// checksums are compared against the previous epoch. There is no per-write
// overhead at all; the cost moves to hashing at checkpoint time, and
// correctness becomes probabilistic — a block whose change collides in the
// hash is silently missed. With HashBits b, the per-changed-block miss
// probability is 2^-b.
type HashTracker struct {
	Acc       Accessor
	Bill      costmodel.Biller
	CM        *costmodel.Model
	BlockSize int
	// HashBits models the checksum width of [23] (their implementation
	// used small checksums; we compute a full FNV-64 so simulation is
	// exact, and expose the analytic miss probability instead).
	HashBits int

	prevHash map[mem.Addr]uint64
	stats    TrackerStats
	armed    bool
}

// NewHashTracker builds a probabilistic tracker with the given block size.
func NewHashTracker(acc Accessor, bill costmodel.Biller, cm *costmodel.Model, blockSize, hashBits int) (*HashTracker, error) {
	if blockSize <= 0 || blockSize > mem.PageSize || mem.PageSize%blockSize != 0 {
		return nil, fmt.Errorf("checkpoint: block size %d must divide the page size", blockSize)
	}
	if hashBits <= 0 || hashBits > 64 {
		hashBits = 64
	}
	return &HashTracker{Acc: acc, Bill: bill, CM: cm, BlockSize: blockSize, HashBits: hashBits}, nil
}

// Name implements Tracker.
func (t *HashTracker) Name() string { return fmt.Sprintf("hash-%dB", t.BlockSize) }

// Granularity implements Tracker.
func (t *HashTracker) Granularity() int { return t.BlockSize }

// Arm implements Tracker: snapshot all block hashes.
func (t *HashTracker) Arm() error {
	t.prevHash = t.hashAll()
	t.armed = true
	return nil
}

func (t *HashTracker) hashAll() map[mem.Addr]uint64 {
	out := make(map[mem.Addr]uint64)
	buf := make([]byte, t.BlockSize)
	as := t.Acc.Process().AS
	for _, pi := range as.ResidentPages() {
		if pi.VMA.Kind == mem.KindText {
			continue
		}
		base := pi.Num.Base()
		for off := 0; off < mem.PageSize; off += t.BlockSize {
			n := t.BlockSize
			if n > mem.PageSize-off {
				n = mem.PageSize - off
			}
			if err := t.Acc.ReadRange(base+mem.Addr(off), buf[:n]); err != nil {
				continue
			}
			h := fnv.New64a()
			h.Write(buf[:n])
			out[base+mem.Addr(off)] = h.Sum64()
			t.stats.HashedBytes += uint64(n)
			t.Bill.Charge(t.CM.Hash(n), "block-hash")
		}
	}
	return out
}

// Collect implements Tracker: rehash, diff, re-arm.
func (t *HashTracker) Collect() ([]Range, error) {
	if !t.armed {
		return nil, fmt.Errorf("checkpoint: %s: Collect before Arm", t.Name())
	}
	cur := t.hashAll()
	var addrs []mem.Addr
	for a, h := range cur {
		if ph, ok := t.prevHash[a]; !ok || ph != h {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var out []Range
	for _, a := range addrs {
		if n := len(out); n > 0 && out[n-1].Addr+mem.Addr(out[n-1].Length) == a {
			out[n-1].Length += t.BlockSize
		} else {
			out = append(out, Range{Addr: a, Length: t.BlockSize})
		}
	}
	t.prevHash = cur
	return out, nil
}

// MissProbability returns the analytic probability that at least one of n
// changed blocks is missed with the configured hash width.
func (t *HashTracker) MissProbability(nChanged int) float64 {
	pMiss := math.Pow(2, -float64(t.HashBits))
	return 1 - math.Pow(1-pMiss, float64(nChanged))
}

// Stats implements Tracker.
func (t *HashTracker) Stats() TrackerStats { return t.stats }

// Close implements Tracker.
func (t *HashTracker) Close() { t.prevHash = nil; t.armed = false }

// AdaptiveTracker implements the adaptive-block-size refinement of [1]
// (Agarwal et al.): it runs a HashTracker but re-picks the block size each
// epoch to minimize modeled cost = hash time over the whole resident set +
// transfer time for the changed data, given the density observed in the
// previous epoch. Dense deltas push the block size up (less hashing per
// byte saved matters little when everything changed); sparse, scattered
// deltas pull it down (finer blocks save more transfer).
type AdaptiveTracker struct {
	Acc   Accessor
	Bill  costmodel.Biller
	CM    *costmodel.Model
	Sizes []int // candidate block sizes, ascending

	cur      *HashTracker
	lastSize int
	stats    TrackerStats
}

// NewAdaptiveTracker builds an adaptive tracker over the given candidate
// sizes (default 256 B–4 KiB).
func NewAdaptiveTracker(acc Accessor, bill costmodel.Biller, cm *costmodel.Model, sizes []int) (*AdaptiveTracker, error) {
	if len(sizes) == 0 {
		sizes = []int{256, 512, 1024, 2048, 4096}
	}
	sort.Ints(sizes)
	t := &AdaptiveTracker{Acc: acc, Bill: bill, CM: cm, Sizes: sizes}
	ht, err := NewHashTracker(acc, bill, cm, sizes[len(sizes)-1], 64)
	if err != nil {
		return nil, err
	}
	t.cur = ht
	t.lastSize = ht.BlockSize
	return t, nil
}

// Name implements Tracker.
func (t *AdaptiveTracker) Name() string { return "adaptive" }

// Granularity implements Tracker: the current block size.
func (t *AdaptiveTracker) Granularity() int { return t.cur.BlockSize }

// Arm implements Tracker.
func (t *AdaptiveTracker) Arm() error { return t.cur.Arm() }

// Collect implements Tracker: collect with the current size, then choose
// the size for the next epoch from the observed change density.
func (t *AdaptiveTracker) Collect() ([]Range, error) {
	out, err := t.cur.Collect()
	if err != nil {
		return nil, err
	}
	t.accumulate()
	changed := 0
	for _, r := range out {
		changed += r.Length
	}
	resident := int(t.Acc.Process().AS.ResidentBytes())
	best := t.pickSize(changed, resident)
	if best != t.cur.BlockSize {
		nt, err := NewHashTracker(t.Acc, t.Bill, t.CM, best, 64)
		if err != nil {
			return out, nil
		}
		t.cur = nt
		if err := t.cur.Arm(); err != nil {
			return out, err
		}
	}
	t.lastSize = t.cur.BlockSize
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
// oscillation.
func (t *AdaptiveTracker) pickSize(changedBytes, residentBytes int) int {
	if residentBytes == 0 || changedBytes == 0 {
		return t.cur.BlockSize
	}
	const (
		alpha        = 0.25 // assumed truly-dirty fraction of a dirty block
		perBlockSecs = 50e-9
		hysteresis   = 0.95
	)
	g := float64(t.cur.BlockSize)
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
		return t.CM.Hash(residentBytes).Seconds() + blocks*perBlockSecs + t.CM.DiskStream(int(ship)).Seconds()
	}

	bestSize := t.cur.BlockSize
	bestCost := cost(bestSize)
	for _, s := range t.Sizes {
		if s == t.cur.BlockSize {
			continue
		}
		if density >= 0.9 && s < t.cur.BlockSize {
			continue // everything is dirty: finer blocks cannot win
		}
		if cs := cost(s); cs < hysteresis*bestCost {
			bestCost, bestSize = cs, s
		}
	}
	return bestSize
}

func (t *AdaptiveTracker) accumulate() {
	s := t.cur.Stats()
	t.stats.HashedBytes += s.HashedBytes
	t.cur.stats = TrackerStats{}
}

// Stats implements Tracker.
func (t *AdaptiveTracker) Stats() TrackerStats { return t.stats }

// Close implements Tracker.
func (t *AdaptiveTracker) Close() { t.cur.Close() }

// interface checks
var (
	_ Tracker = (*FullTracker)(nil)
	_ Tracker = (*WPTracker)(nil)
	_ Tracker = (*HashTracker)(nil)
	_ Tracker = (*AdaptiveTracker)(nil)
)
