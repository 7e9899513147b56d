package checkpoint

import (
	"fmt"
	"sort"

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
// displaced, and the epoch state. Name and Stats implement Tracker for
// both.
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

// interface checks
var (
	_ Tracker = (*FullTracker)(nil)
	_ Tracker = (*WPTracker)(nil)
	_ Tracker = (*BlockTracker)(nil)
)
