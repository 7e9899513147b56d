// Package mem models per-process virtual memory: VMAs (virtual memory
// areas), demand-zero 4 KiB pages, page protection, dirty/accessed bits,
// and the page-fault hook on which every incremental-checkpointing
// technique in the paper is built.
//
// Two observation channels are exposed:
//
//   - FaultHandler: invoked on protection violations. The kernel's
//     system-level incremental tracker marks the page dirty and retries
//     (§4: "the exception handler can keep track of the dirty page");
//     user-level trackers instead deliver SIGSEGV to the process (§3).
//   - WriteHook: invoked on every committed store at cache-line spans;
//     this is the attachment point for the hardware schemes of §4.2
//     (ReVive, SafetyNet), which trace writes at cache-line granularity.
package mem

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/crc"
)

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Addr is a simulated virtual address.
type Addr uint64

// PageNum identifies a virtual page (Addr >> PageShift).
type PageNum uint64

// Page returns the page containing a.
func (a Addr) Page() PageNum { return PageNum(a >> PageShift) }

// Offset returns the offset of a within its page.
func (a Addr) Offset() int { return int(a & (PageSize - 1)) }

// Base returns the first address of page p.
func (p PageNum) Base() Addr { return Addr(p) << PageShift }

// Prot is a page-protection bit set.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// Common protection combinations.
const (
	ProtNone Prot = 0
	ProtRW        = ProtRead | ProtWrite
	ProtRX        = ProtRead | ProtExec
	ProtRWX       = ProtRead | ProtWrite | ProtExec
)

// Can reports whether p includes all bits of want.
func (p Prot) Can(want Prot) bool { return p&want == want }

// String renders p in ls -l style, e.g. "rw-".
func (p Prot) String() string {
	b := []byte("---")
	if p.Can(ProtRead) {
		b[0] = 'r'
	}
	if p.Can(ProtWrite) {
		b[1] = 'w'
	}
	if p.Can(ProtExec) {
		b[2] = 'x'
	}
	return string(b)
}

// Access is the kind of memory access that faulted.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
	AccessExec
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return "?"
}

// VMAKind classifies a memory region, mirroring /proc/<pid>/maps.
type VMAKind uint8

// Region kinds.
const (
	KindText VMAKind = iota
	KindData
	KindHeap
	KindStack
	KindAnon
	KindFile
	KindShared // System V style shared memory: kernel-persistent state (§3)
)

func (k VMAKind) String() string {
	switch k {
	case KindText:
		return "text"
	case KindData:
		return "data"
	case KindHeap:
		return "heap"
	case KindStack:
		return "stack"
	case KindAnon:
		return "anon"
	case KindFile:
		return "file"
	case KindShared:
		return "shared"
	}
	return "?"
}

// Page is one resident simulated page.
type Page struct {
	data     []byte // nil until first write (demand-zero)
	prot     Prot
	dirty    bool // set on write, cleared by ClearDirty (kernel tracker)
	accessed bool
	version  uint64 // bumped on every committed write
}

// Prot returns the page's current protection.
func (p *Page) Prot() Prot { return p.prot }

// Dirty reports the kernel-maintained dirty bit.
func (p *Page) Dirty() bool { return p.dirty }

// Version returns the page's write-version counter.
func (p *Page) Version() uint64 { return p.version }

// Data returns the page contents; the returned slice must not be modified.
// A nil return means the page is still demand-zero.
func (p *Page) Data() []byte { return p.data }

// VMA is one contiguous mapped region.
type VMA struct {
	Start  Addr
	Length uint64 // bytes, page-aligned
	Kind   VMAKind
	Name   string // file path for KindFile, shm key for KindShared
	Prot   Prot   // default protection for pages not yet materialized

	pages map[PageNum]*Page
}

// End returns one past the last mapped address.
func (v *VMA) End() Addr { return v.Start + Addr(v.Length) }

// Contains reports whether a falls inside the region.
func (v *VMA) Contains(a Addr) bool { return a >= v.Start && a < v.End() }

// NumPages returns the region's page count.
func (v *VMA) NumPages() int { return int(v.Length / PageSize) }

// ResidentPages returns how many pages have been materialized.
func (v *VMA) ResidentPages() int { return len(v.pages) }

func (v *VMA) String() string {
	return fmt.Sprintf("%08x-%08x %s %s %s", uint64(v.Start), uint64(v.End()), v.Prot, v.Kind, v.Name)
}

// page returns the page struct for pn, materializing it on demand.
func (v *VMA) page(pn PageNum) *Page {
	pg, ok := v.pages[pn]
	if !ok {
		pg = &Page{prot: v.Prot}
		v.pages[pn] = pg
	}
	return pg
}

// peek returns the page struct for pn if resident, else nil.
func (v *VMA) peek(pn PageNum) *Page { return v.pages[pn] }

// Fault describes a failed memory access.
type Fault struct {
	Addr   Addr
	Access Access
	VMA    *VMA // nil when the address is unmapped
	// Len is the length of the faulting access's span within the page
	// (zero when unknown, e.g. unmapped addresses). Liveness trackers use
	// it to distinguish a whole-page overwrite — which makes the page's
	// prior contents dead — from a partial store that merges with them.
	Len int
}

func (f *Fault) Error() string {
	where := "unmapped"
	if f.VMA != nil {
		where = f.VMA.String()
	}
	return fmt.Sprintf("fault: %s at %#x (%s)", f.Access, uint64(f.Addr), where)
}

// Disposition is a fault handler's verdict.
type Disposition uint8

// Dispositions.
const (
	// FaultRetry re-attempts the access; the handler is expected to have
	// fixed the protection (dirty-bit tracking does exactly this).
	FaultRetry Disposition = iota
	// FaultSignal aborts the access and reports the fault to the caller,
	// which in the kernel turns it into SIGSEGV delivery (§3 user-level
	// incremental checkpointing).
	FaultSignal
	// FaultFatal aborts the access; the process should be killed.
	FaultFatal
)

// FaultHandler decides what happens on a protection violation.
// At most maxFaultRetries retries are allowed per access, so a handler
// that never fixes the protection cannot hang the simulation.
type FaultHandler func(*Fault) Disposition

// WriteHook observes every committed store, invoked once per cache-line
// span. oldData is the line's previous contents (nil if the page was
// demand-zero); it must not be retained.
type WriteHook func(addr Addr, oldData, newData []byte)

const maxFaultRetries = 4

// ErrUnmapped is returned (wrapped in *Fault via errors.As) for accesses
// to unmapped addresses.
var ErrUnmapped = errors.New("mem: unmapped address")

// AddressSpace is one process's memory map.
type AddressSpace struct {
	vmas []*VMA // sorted by Start, non-overlapping

	brk      Addr // current heap break (end of heap VMA in use)
	heapBase Addr

	faultHandler FaultHandler
	writeHooks   []WriteHook
	lineSize     int
	faultCount   uint64
	writeCount   uint64
	bytesWritten uint64
	versionClock uint64

	lazy *lazyFill // demand-fill state for lazy restore (nil when eager)
}

// NewAddressSpace returns an empty address space with 64-byte line hooks.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{lineSize: 64}
}

// SetFaultHandler installs h as the protection-violation handler,
// returning the previous handler.
func (as *AddressSpace) SetFaultHandler(h FaultHandler) FaultHandler {
	old := as.faultHandler
	as.faultHandler = h
	return old
}

// AddWriteHook registers a cache-line-granularity write observer.
func (as *AddressSpace) AddWriteHook(h WriteHook) { as.writeHooks = append(as.writeHooks, h) }

// ClearWriteHooks removes all write observers.
func (as *AddressSpace) ClearWriteHooks() { as.writeHooks = nil }

// SetLineSize sets the granularity at which write hooks fire.
func (as *AddressSpace) SetLineSize(n int) {
	if n <= 0 || PageSize%n != 0 {
		panic(fmt.Sprintf("mem: line size %d must divide page size", n))
	}
	as.lineSize = n
}

// FaultCount returns the number of protection faults taken so far.
func (as *AddressSpace) FaultCount() uint64 { return as.faultCount }

// WriteCount returns the number of Write calls committed.
func (as *AddressSpace) WriteCount() uint64 { return as.writeCount }

// BytesWritten returns the total bytes stored.
func (as *AddressSpace) BytesWritten() uint64 { return as.bytesWritten }

// Map creates a new VMA. start and length must be page-aligned, length
// positive, and the range must not overlap an existing mapping.
func (as *AddressSpace) Map(start Addr, length uint64, prot Prot, kind VMAKind, name string) (*VMA, error) {
	if start%PageSize != 0 || length == 0 || length%PageSize != 0 {
		return nil, fmt.Errorf("mem: Map(%#x,%d): unaligned", uint64(start), length)
	}
	end := start + Addr(length)
	if end < start {
		return nil, fmt.Errorf("mem: Map(%#x,%d): wraps address space", uint64(start), length)
	}
	for _, v := range as.vmas {
		if start < v.End() && v.Start < end {
			return nil, fmt.Errorf("mem: Map(%#x,%d): overlaps %s", uint64(start), length, v)
		}
	}
	v := &VMA{
		Start:  start,
		Length: length,
		Kind:   kind,
		Name:   name,
		Prot:   prot,
		pages:  make(map[PageNum]*Page),
	}
	as.vmas = append(as.vmas, v)
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Start < as.vmas[j].Start })
	if kind == KindHeap {
		as.heapBase = start
		as.brk = start
	}
	return v, nil
}

// MapAnywhere maps length bytes at the lowest gap at or above hint.
func (as *AddressSpace) MapAnywhere(hint Addr, length uint64, prot Prot, kind VMAKind, name string) (*VMA, error) {
	if hint%PageSize != 0 {
		hint = (hint + PageSize - 1) &^ (PageSize - 1)
	}
	start := hint
	for _, v := range as.vmas {
		if v.End() <= start {
			continue
		}
		if v.Start >= start+Addr(length) {
			break
		}
		start = v.End()
	}
	return as.Map(start, length, prot, kind, name)
}

// Unmap removes the VMA starting exactly at start.
func (as *AddressSpace) Unmap(start Addr) error {
	for i, v := range as.vmas {
		if v.Start == start {
			as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
			as.dropPendingFill(v.Start, v.End())
			return nil
		}
	}
	return fmt.Errorf("mem: Unmap(%#x): no VMA at that address", uint64(start))
}

// VMAs returns the mappings in address order. The returned slice is a copy;
// the *VMA values are live.
func (as *AddressSpace) VMAs() []*VMA {
	out := make([]*VMA, len(as.vmas))
	copy(out, as.vmas)
	return out
}

// Find returns the VMA containing a, or nil.
func (as *AddressSpace) Find(a Addr) *VMA {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End() > a })
	if i < len(as.vmas) && as.vmas[i].Contains(a) {
		return as.vmas[i]
	}
	return nil
}

// FindByName returns the first VMA with the given name, or nil.
func (as *AddressSpace) FindByName(name string) *VMA {
	for _, v := range as.vmas {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// Brk returns the current heap break.
func (as *AddressSpace) Brk() Addr { return as.brk }

// SetBrk grows or shrinks the heap VMA to end at newBrk (rounded up to a
// page). It mirrors the sbrk/brk syscalls the paper cites as the way
// user-level checkpointers discover heap boundaries.
func (as *AddressSpace) SetBrk(newBrk Addr) error {
	heap := as.heapVMA()
	if heap == nil {
		return errors.New("mem: SetBrk: no heap VMA")
	}
	if newBrk < heap.Start {
		return fmt.Errorf("mem: SetBrk(%#x): below heap base %#x", uint64(newBrk), uint64(heap.Start))
	}
	newEnd := (newBrk + PageSize - 1) &^ (PageSize - 1)
	// The heap VMA always keeps at least one page, so its mapping never
	// degenerates to zero length (which could not be re-created on
	// restart).
	if newEnd < heap.Start+PageSize {
		newEnd = heap.Start + PageSize
	}
	// Check the grown heap does not collide with the next VMA.
	for _, v := range as.vmas {
		if v != heap && v.Start >= heap.Start && v.Start < newEnd {
			return fmt.Errorf("mem: SetBrk(%#x): collides with %s", uint64(newBrk), v)
		}
	}
	if newEnd < heap.End() {
		// Shrink: drop pages beyond the new end, including ones a lazy
		// restore has not materialized yet — a later re-grow must see
		// demand-zero pages, not resurrected checkpoint contents.
		for pn := range heap.pages {
			if pn.Base() >= newEnd {
				delete(heap.pages, pn)
			}
		}
		as.dropPendingFill(newEnd, heap.End())
	}
	heap.Length = uint64(newEnd - heap.Start)
	as.brk = newBrk
	return nil
}

func (as *AddressSpace) heapVMA() *VMA {
	for _, v := range as.vmas {
		if v.Kind == KindHeap {
			return v
		}
	}
	return nil
}

// Protect changes protection for all pages overlapping [start,start+length),
// mirroring mprotect. It affects both resident and future pages of fully
// covered VMAs; for partially covered VMAs only the covered resident and
// demanded pages change (future pages materialize with the VMA default, as
// on Linux after a partial mprotect is ignored for simplicity—our trackers
// always protect whole VMAs). Returns the number of pages whose PTE changed.
func (as *AddressSpace) Protect(start Addr, length uint64, prot Prot) (int, error) {
	if start%PageSize != 0 || length%PageSize != 0 {
		return 0, fmt.Errorf("mem: Protect(%#x,%d): unaligned", uint64(start), length)
	}
	end := start + Addr(length)
	n := 0
	for _, v := range as.vmas {
		if v.End() <= start || v.Start >= end {
			continue
		}
		lo, hi := v.Start, v.End()
		if start > lo {
			lo = start
		}
		if end < hi {
			hi = end
		}
		for pn := lo.Page(); pn < hi.Page(); pn++ {
			pg := v.page(pn)
			if pg.prot != prot {
				pg.prot = prot
				n++
			}
		}
		if lo == v.Start && hi == v.End() {
			v.Prot = prot
		}
	}
	return n, nil
}

// ProtectVMA sets protection on a whole VMA.
func (as *AddressSpace) ProtectVMA(v *VMA, prot Prot) int {
	n, _ := as.Protect(v.Start, v.Length, prot)
	return n
}

// Read copies len(buf) bytes starting at addr into buf.
func (as *AddressSpace) Read(addr Addr, buf []byte) error {
	return as.access(addr, buf, AccessRead)
}

// Write stores data at addr, honoring page protection: protection
// violations invoke the fault handler, which may fix up and retry
// (kernel dirty tracking) or convert the fault to an error for signal
// delivery (user-level tracking).
func (as *AddressSpace) Write(addr Addr, data []byte) error {
	return as.access(addr, data, AccessWrite)
}

func (as *AddressSpace) access(addr Addr, buf []byte, acc Access) error {
	off := 0
	for off < len(buf) {
		a := addr + Addr(off)
		v := as.Find(a)
		if v == nil {
			f := &Fault{Addr: a, Access: acc}
			as.faultCount++
			return f
		}
		pn := a.Page()
		// Chunk within this page.
		n := PageSize - a.Offset()
		if rem := len(buf) - off; n > rem {
			n = rem
		}
		if err := as.fillPending(pn); err != nil {
			return err
		}
		pg := v.page(pn)
		want := ProtRead
		if acc == AccessWrite {
			want = ProtWrite
		}
		retries := 0
		for !pg.prot.Can(want) {
			f := &Fault{Addr: a, Access: acc, VMA: v, Len: n}
			as.faultCount++
			if as.faultHandler == nil {
				return f
			}
			switch as.faultHandler(f) {
			case FaultRetry:
				retries++
				if retries > maxFaultRetries {
					return fmt.Errorf("mem: fault handler looping at %#x: %w", uint64(a), f)
				}
			case FaultSignal, FaultFatal:
				return f
			}
		}
		pg.accessed = true
		if acc == AccessRead {
			if pg.data == nil {
				zero(buf[off : off+n])
			} else {
				copy(buf[off:off+n], pg.data[a.Offset():a.Offset()+n])
			}
		} else {
			as.store(v, pg, a, buf[off:off+n])
		}
		off += n
	}
	if acc == AccessWrite {
		as.writeCount++
		as.bytesWritten += uint64(len(buf))
	}
	return nil
}

// store commits a write entirely within one page, firing line hooks.
func (as *AddressSpace) store(v *VMA, pg *Page, a Addr, data []byte) {
	if pg.data == nil {
		pg.data = make([]byte, PageSize)
	}
	po := a.Offset()
	if len(as.writeHooks) > 0 {
		// Fire once per cache-line span covered by the store.
		start := po &^ (as.lineSize - 1)
		for ls := start; ls < po+len(data); ls += as.lineSize {
			le := ls + as.lineSize
			lineAddr := a - Addr(po) + Addr(ls)
			old := append([]byte(nil), pg.data[ls:le]...)
			// Compute the new line image after this store.
			newLine := append([]byte(nil), pg.data[ls:le]...)
			for i := ls; i < le; i++ {
				di := i - po
				if di >= 0 && di < len(data) {
					newLine[i-ls] = data[di]
				}
			}
			for _, h := range as.writeHooks {
				h(lineAddr, old, newLine)
			}
		}
	}
	copy(pg.data[po:], data)
	pg.dirty = true
	as.versionClock++
	pg.version = as.versionClock
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// ReadDirect copies memory without protection checks or fault handling;
// this models kernel-mode access to the process image (§4.1: "in kernel
// space every data structure relevant to a process's state is readily
// accessible").
func (as *AddressSpace) ReadDirect(addr Addr, buf []byte) error {
	off := 0
	for off < len(buf) {
		a := addr + Addr(off)
		v := as.Find(a)
		if v == nil {
			return &Fault{Addr: a, Access: AccessRead}
		}
		n := PageSize - a.Offset()
		if rem := len(buf) - off; n > rem {
			n = rem
		}
		if err := as.fillPending(a.Page()); err != nil {
			return err
		}
		pg := v.peek(a.Page())
		if pg == nil || pg.data == nil {
			zero(buf[off : off+n])
		} else {
			copy(buf[off:off+n], pg.data[a.Offset():a.Offset()+n])
		}
		off += n
	}
	return nil
}

// WriteDirect stores without protection checks (kernel-mode restore path).
func (as *AddressSpace) WriteDirect(addr Addr, data []byte) error {
	off := 0
	for off < len(data) {
		a := addr + Addr(off)
		v := as.Find(a)
		if v == nil {
			return &Fault{Addr: a, Access: AccessWrite}
		}
		n := PageSize - a.Offset()
		if rem := len(data) - off; n > rem {
			n = rem
		}
		if err := as.fillPending(a.Page()); err != nil {
			return err
		}
		pg := v.page(a.Page())
		if pg.data == nil {
			pg.data = make([]byte, PageSize)
		}
		copy(pg.data[a.Offset():], data[off:off+n])
		pg.dirty = true
		as.versionClock++
		pg.version = as.versionClock
		off += n
	}
	return nil
}

// PageBuffer materializes the page pn and returns its backing buffer for
// direct kernel-mode writes, marking it dirty and bumping the version
// clock once. This is the parallel-restore seam: WriteDirect mutates the
// per-VMA page map and the shared version clock and is therefore not
// safe from worker goroutines, so a parallel replay materializes every
// target page through this method first (sequentially) and then lets
// workers copy into the disjoint buffers it returned.
func (as *AddressSpace) PageBuffer(pn PageNum) ([]byte, error) {
	a := pn.Base()
	v := as.Find(a)
	if v == nil {
		return nil, &Fault{Addr: a, Access: AccessWrite}
	}
	if err := as.fillPending(pn); err != nil {
		return nil, err
	}
	pg := v.page(pn)
	if pg.data == nil {
		pg.data = make([]byte, PageSize)
	}
	pg.dirty = true
	as.versionClock++
	pg.version = as.versionClock
	return pg.data, nil
}

// PageInfo describes one resident page for iteration.
type PageInfo struct {
	VMA  *VMA
	Num  PageNum
	Page *Page
}

// ResidentPages returns all materialized pages in address order.
func (as *AddressSpace) ResidentPages() []PageInfo {
	var out []PageInfo
	for _, v := range as.vmas {
		nums := make([]PageNum, 0, len(v.pages))
		for pn := range v.pages {
			nums = append(nums, pn)
		}
		sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
		for _, pn := range nums {
			out = append(out, PageInfo{VMA: v, Num: pn, Page: v.pages[pn]})
		}
	}
	return out
}

// DirtyPages returns resident pages with the dirty bit set, in address
// order, optionally clearing the bit (the kernel tracker's epoch reset).
func (as *AddressSpace) DirtyPages(clear bool) []PageInfo {
	var out []PageInfo
	for _, pi := range as.ResidentPages() {
		if pi.Page.dirty {
			out = append(out, pi)
			if clear {
				pi.Page.dirty = false
			}
		}
	}
	return out
}

// ClearDirty clears all dirty bits (start of a tracking epoch).
func (as *AddressSpace) ClearDirty() {
	for _, v := range as.vmas {
		for _, pg := range v.pages {
			pg.dirty = false
		}
	}
}

// ResidentBytes returns the total bytes of materialized pages.
func (as *AddressSpace) ResidentBytes() uint64 {
	var n uint64
	for _, v := range as.vmas {
		n += uint64(len(v.pages)) * PageSize
	}
	return n
}

// MappedBytes returns the total bytes of all VMAs (resident or not).
func (as *AddressSpace) MappedBytes() uint64 {
	var n uint64
	for _, v := range as.vmas {
		n += v.Length
	}
	return n
}

// Checksum returns a CRC-64 over the mapped image (VMAs and page contents),
// used by restart-equivalence tests.
func (as *AddressSpace) Checksum() uint64 {
	var sum uint64
	var hdr [16]byte
	for _, pi := range as.ResidentPages() {
		// All-zero pages hash identically to absent (demand-zero) pages,
		// matching Equal's semantics.
		if pi.Page.data == nil || isZero(pi.Page.data) {
			continue
		}
		put64(hdr[0:8], uint64(pi.Num))
		put64(hdr[8:16], uint64(pi.VMA.Start))
		sum = crc.Update(sum, hdr[:])
		sum = crc.Update(sum, pi.Page.data)
	}
	return sum
}

func put64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func isZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Clone deep-copies the address space (fork, or fork-based consistent
// checkpointing per the "Checkpoint" system [5]). Fault handlers, write
// hooks, and any armed demand-fill state are not inherited.
func (as *AddressSpace) Clone() *AddressSpace {
	n := NewAddressSpace()
	n.brk = as.brk
	n.heapBase = as.heapBase
	n.lineSize = as.lineSize
	for _, v := range as.vmas {
		nv := &VMA{
			Start:  v.Start,
			Length: v.Length,
			Kind:   v.Kind,
			Name:   v.Name,
			Prot:   v.Prot,
			pages:  make(map[PageNum]*Page, len(v.pages)),
		}
		for pn, pg := range v.pages {
			np := &Page{prot: pg.prot, dirty: pg.dirty, accessed: pg.accessed, version: pg.version}
			if pg.data != nil {
				np.data = append([]byte(nil), pg.data...)
			}
			nv.pages[pn] = np
		}
		n.vmas = append(n.vmas, nv)
	}
	return n
}

// Equal reports whether the two address spaces have identical mappings and
// page contents (ignoring dirty/accessed bookkeeping and protection, which
// trackers mutate).
func (as *AddressSpace) Equal(other *AddressSpace) bool {
	if len(as.vmas) != len(other.vmas) || as.brk != other.brk {
		return false
	}
	for i, v := range as.vmas {
		o := other.vmas[i]
		if v.Start != o.Start || v.Length != o.Length || v.Kind != o.Kind || v.Name != o.Name {
			return false
		}
		for pn := v.Start.Page(); pn < v.End().Page(); pn++ {
			a, b := v.peek(pn), o.peek(pn)
			ad, bd := pageBytes(a), pageBytes(b)
			if !bytesEqualZeroExtended(ad, bd) {
				return false
			}
		}
	}
	return true
}

func pageBytes(p *Page) []byte {
	if p == nil {
		return nil
	}
	return p.data
}

// bytesEqualZeroExtended treats nil as all-zero.
func bytesEqualZeroExtended(a, b []byte) bool {
	switch {
	case a == nil && b == nil:
		return true
	case a == nil:
		return isZero(b)
	case b == nil:
		return isZero(a)
	default:
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
}
