package mem

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

func newTestAS(t *testing.T) *AddressSpace {
	t.Helper()
	as := NewAddressSpace()
	mustMap(t, as, 0x400000, 4*PageSize, ProtRX, KindText, "a.out")
	mustMap(t, as, 0x600000, 16*PageSize, ProtRW, KindHeap, "[heap]")
	mustMap(t, as, 0x7ff00000, 8*PageSize, ProtRW, KindStack, "[stack]")
	return as
}

func mustMap(t *testing.T, as *AddressSpace, start Addr, length uint64, prot Prot, kind VMAKind, name string) *VMA {
	t.Helper()
	v, err := as.Map(start, length, prot, kind, name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestMapRejectsUnaligned(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Map(100, PageSize, ProtRW, KindAnon, ""); err == nil {
		t.Fatal("unaligned start accepted")
	}
	if _, err := as.Map(0, 100, ProtRW, KindAnon, ""); err == nil {
		t.Fatal("unaligned length accepted")
	}
	if _, err := as.Map(0, 0, ProtRW, KindAnon, ""); err == nil {
		t.Fatal("zero length accepted")
	}
}

func TestMapRejectsOverlap(t *testing.T) {
	as := newTestAS(t)
	if _, err := as.Map(0x600000, PageSize, ProtRW, KindAnon, ""); err == nil {
		t.Fatal("exact overlap accepted")
	}
	if _, err := as.Map(0x5ff000, 2*PageSize, ProtRW, KindAnon, ""); err == nil {
		t.Fatal("partial overlap accepted")
	}
}

func TestMapAnywhereSkipsExisting(t *testing.T) {
	as := newTestAS(t)
	v, err := as.MapAnywhere(0x600000, 2*PageSize, ProtRW, KindAnon, "mmap")
	if err != nil {
		t.Fatal(err)
	}
	if v.Start != 0x600000+16*PageSize {
		t.Fatalf("MapAnywhere landed at %#x, want just after heap", uint64(v.Start))
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	as := newTestAS(t)
	msg := []byte("the quick brown fox")
	if err := as.Write(0x600010, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := as.Read(0x600010, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("read %q, want %q", got, msg)
	}
}

func TestWriteSpanningPages(t *testing.T) {
	as := newTestAS(t)
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	addr := Addr(0x600000 + PageSize - 100) // crosses three pages
	if err := as.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
}

func TestDemandZeroRead(t *testing.T) {
	as := newTestAS(t)
	buf := []byte{1, 2, 3, 4}
	if err := as.Read(0x600000, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %d, want demand-zero 0", i, b)
		}
	}
	if as.ResidentBytes() != 0 {
		// Reads materialize the Page struct but not its data; data stays nil.
		// ResidentBytes counts Page structs, so one page is resident.
		t.Logf("resident after read: %d bytes", as.ResidentBytes())
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	as := newTestAS(t)
	err := as.Write(0x100, []byte{1})
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want *Fault, got %v", err)
	}
	if f.VMA != nil || f.Access != AccessWrite {
		t.Fatalf("fault = %+v", f)
	}
}

func TestWriteProtectedFaultsWithoutHandler(t *testing.T) {
	as := newTestAS(t)
	err := as.Write(0x400000, []byte{1}) // text is r-x
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want *Fault, got %v", err)
	}
	if f.VMA == nil || f.VMA.Kind != KindText {
		t.Fatalf("fault VMA = %v", f.VMA)
	}
}

func TestFaultRetryTracksDirty(t *testing.T) {
	as := newTestAS(t)
	heap := as.FindByName("[heap]")
	as.ProtectVMA(heap, ProtRead) // write-protect for tracking
	var tracked []PageNum
	as.SetFaultHandler(func(f *Fault) Disposition {
		if f.Access != AccessWrite {
			return FaultFatal
		}
		tracked = append(tracked, f.Addr.Page())
		// Unprotect the single page and retry, as a kernel tracker would.
		if _, err := as.Protect(f.Addr.Page().Base(), PageSize, ProtRW); err != nil {
			t.Fatal(err)
		}
		return FaultRetry
	})
	if err := as.Write(0x600000, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(0x600001, []byte("y")); err != nil {
		t.Fatal(err) // second write to same page: no fault
	}
	if err := as.Write(0x600000+PageSize, []byte("z")); err != nil {
		t.Fatal(err)
	}
	if len(tracked) != 2 {
		t.Fatalf("tracked %d pages, want 2 (one fault per first touch)", len(tracked))
	}
	if as.FaultCount() != 2 {
		t.Fatalf("FaultCount = %d, want 2", as.FaultCount())
	}
}

func TestFaultSignalAborts(t *testing.T) {
	as := newTestAS(t)
	heap := as.FindByName("[heap]")
	as.ProtectVMA(heap, ProtRead)
	as.SetFaultHandler(func(f *Fault) Disposition { return FaultSignal })
	err := as.Write(0x600000, []byte("x"))
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want fault error, got %v", err)
	}
}

func TestFaultHandlerLoopGuard(t *testing.T) {
	as := newTestAS(t)
	heap := as.FindByName("[heap]")
	as.ProtectVMA(heap, ProtRead)
	as.SetFaultHandler(func(f *Fault) Disposition { return FaultRetry }) // never fixes
	err := as.Write(0x600000, []byte("x"))
	if err == nil {
		t.Fatal("looping handler not detected")
	}
}

func TestDirtyPagesAndClear(t *testing.T) {
	as := newTestAS(t)
	as.Write(0x600000, []byte("a"))
	as.Write(0x600000+2*PageSize, []byte("b"))
	dirty := as.DirtyPages(true)
	if len(dirty) != 2 {
		t.Fatalf("dirty = %d pages, want 2", len(dirty))
	}
	if len(as.DirtyPages(false)) != 0 {
		t.Fatal("dirty bits not cleared")
	}
	as.Write(0x600000, []byte("c"))
	if len(as.DirtyPages(false)) != 1 {
		t.Fatal("rewrite did not set dirty bit again")
	}
}

func TestBrkGrowShrink(t *testing.T) {
	as := newTestAS(t)
	heap := as.FindByName("[heap]")
	origLen := heap.Length
	if err := as.SetBrk(heap.Start + Addr(origLen) + 3*PageSize + 5); err != nil {
		t.Fatal(err)
	}
	if heap.Length != origLen+4*PageSize { // rounded up
		t.Fatalf("heap length = %d, want %d", heap.Length, origLen+4*PageSize)
	}
	// Write into the new space, then shrink and verify pages dropped.
	if err := as.Write(heap.Start+Addr(origLen), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	before := heap.ResidentPages()
	if err := as.SetBrk(heap.Start + Addr(origLen)); err != nil {
		t.Fatal(err)
	}
	if heap.ResidentPages() != before-1 {
		t.Fatalf("shrink kept pages: %d, want %d", heap.ResidentPages(), before-1)
	}
	if err := as.SetBrk(heap.Start - PageSize); err == nil {
		t.Fatal("SetBrk below base accepted")
	}
}

func TestProtectCounting(t *testing.T) {
	as := newTestAS(t)
	heap := as.FindByName("[heap]")
	n := as.ProtectVMA(heap, ProtRead)
	if n != heap.NumPages() {
		t.Fatalf("Protect changed %d PTEs, want %d", n, heap.NumPages())
	}
	// Protecting again with the same protection changes nothing.
	if n := as.ProtectVMA(heap, ProtRead); n != 0 {
		t.Fatalf("re-Protect changed %d PTEs, want 0", n)
	}
}

func TestWriteHooksFireAtLineGranularity(t *testing.T) {
	as := newTestAS(t)
	var lines []Addr
	as.AddWriteHook(func(addr Addr, old, new []byte) {
		if len(new) != 64 {
			t.Fatalf("hook got %d-byte line, want 64", len(new))
		}
		lines = append(lines, addr)
	})
	// A 100-byte write starting at offset 10 touches lines 0 and 64 (and 96..109 → line 96).
	if err := as.Write(0x600000+10, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("hook fired %d times, want 2 (lines 0,64)", len(lines))
	}
	if lines[0] != 0x600000 || lines[1] != 0x600040 {
		t.Fatalf("line addrs = %#x,%#x", uint64(lines[0]), uint64(lines[1]))
	}
}

func TestWriteHookSeesOldAndNew(t *testing.T) {
	as := newTestAS(t)
	as.Write(0x600000, []byte{1, 2, 3, 4})
	var old0, new0 byte
	as.AddWriteHook(func(addr Addr, old, new []byte) {
		old0, new0 = old[0], new[0]
	})
	as.Write(0x600000, []byte{9})
	if old0 != 1 || new0 != 9 {
		t.Fatalf("hook old=%d new=%d, want 1/9", old0, new0)
	}
}

func TestReadWriteDirectBypassProtection(t *testing.T) {
	as := newTestAS(t)
	text := as.FindByName("a.out")
	if err := as.WriteDirect(text.Start, []byte("ELF")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if err := as.ReadDirect(text.Start, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ELF" {
		t.Fatalf("ReadDirect = %q", buf)
	}
	if as.FaultCount() != 0 {
		t.Fatal("direct access took faults")
	}
}

func TestCloneIsDeepAndEqual(t *testing.T) {
	as := newTestAS(t)
	as.Write(0x600000, []byte("state"))
	cl := as.Clone()
	if !as.Equal(cl) || !cl.Equal(as) {
		t.Fatal("clone not Equal to original")
	}
	if as.Checksum() != cl.Checksum() {
		t.Fatal("clone checksum differs")
	}
	// Mutating the clone must not affect the original.
	cl.Write(0x600000, []byte("XXXXX"))
	buf := make([]byte, 5)
	as.Read(0x600000, buf)
	if string(buf) != "state" {
		t.Fatalf("original mutated through clone: %q", buf)
	}
	if as.Equal(cl) {
		t.Fatal("Equal missed a difference")
	}
}

func TestEqualTreatsZeroPagesAsNil(t *testing.T) {
	a := NewAddressSpace()
	b := NewAddressSpace()
	for _, as := range []*AddressSpace{a, b} {
		if _, err := as.Map(0, 2*PageSize, ProtRW, KindAnon, ""); err != nil {
			t.Fatal(err)
		}
	}
	// Materialize an all-zero page in a only.
	a.Write(0, []byte{0})
	if !a.Equal(b) {
		t.Fatal("explicit zero page should equal demand-zero page")
	}
	a.Write(0, []byte{7})
	if a.Equal(b) {
		t.Fatal("differing page not detected")
	}
}

func TestUnmap(t *testing.T) {
	as := newTestAS(t)
	if err := as.Unmap(0x400000); err != nil {
		t.Fatal(err)
	}
	if as.Find(0x400000) != nil {
		t.Fatal("VMA still present after Unmap")
	}
	if err := as.Unmap(0x400000); err == nil {
		t.Fatal("double Unmap accepted")
	}
}

func TestProtString(t *testing.T) {
	if ProtRW.String() != "rw-" || ProtRX.String() != "r-x" || ProtNone.String() != "---" {
		t.Fatal("Prot.String wrong")
	}
}

func TestSetLineSizeValidation(t *testing.T) {
	as := NewAddressSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("bad line size accepted")
		}
	}()
	as.SetLineSize(100) // does not divide 4096
}

// Property: any sequence of writes followed by reads returns the written
// data (last-writer-wins), within a single VMA.
func TestQuickLastWriterWins(t *testing.T) {
	f := func(ops []struct {
		Off  uint16
		Data []byte
	}) bool {
		as := NewAddressSpace()
		if _, err := as.Map(0, 32*PageSize, ProtRW, KindAnon, ""); err != nil {
			return false
		}
		shadow := make([]byte, 32*PageSize)
		for _, op := range ops {
			if len(op.Data) == 0 {
				continue
			}
			off := int(op.Off) % (len(shadow) - len(op.Data))
			if off < 0 {
				continue
			}
			if err := as.Write(Addr(off), op.Data); err != nil {
				return false
			}
			copy(shadow[off:], op.Data)
		}
		got := make([]byte, len(shadow))
		if err := as.Read(0, got); err != nil {
			return false
		}
		for i := range shadow {
			if got[i] != shadow[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone always Equals the original and has the same checksum,
// for random write patterns.
func TestQuickCloneEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 30; iter++ {
		as := NewAddressSpace()
		if _, err := as.Map(0, 16*PageSize, ProtRW, KindHeap, "[heap]"); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 20; w++ {
			buf := make([]byte, 1+rng.Intn(200))
			rng.Read(buf)
			off := rng.Intn(16*PageSize - len(buf))
			if err := as.Write(Addr(off), buf); err != nil {
				t.Fatal(err)
			}
		}
		cl := as.Clone()
		if !as.Equal(cl) || as.Checksum() != cl.Checksum() {
			t.Fatalf("iter %d: clone differs", iter)
		}
	}
}

// Property: number of tracked pages from write-protect tracking equals the
// number of distinct pages written in the epoch.
func TestQuickTrackingCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 30; iter++ {
		as := NewAddressSpace()
		v, err := as.Map(0, 64*PageSize, ProtRW, KindHeap, "[heap]")
		if err != nil {
			t.Fatal(err)
		}
		as.ProtectVMA(v, ProtRead)
		tracked := map[PageNum]bool{}
		as.SetFaultHandler(func(f *Fault) Disposition {
			tracked[f.Addr.Page()] = true
			as.Protect(f.Addr.Page().Base(), PageSize, ProtRW)
			return FaultRetry
		})
		want := map[PageNum]bool{}
		for w := 0; w < 50; w++ {
			off := rng.Intn(64*PageSize - 8)
			if err := as.Write(Addr(off), []byte("12345678")); err != nil {
				t.Fatal(err)
			}
			want[Addr(off).Page()] = true
			if Addr(off+7).Page() != Addr(off).Page() {
				want[Addr(off+7).Page()] = true
			}
		}
		if len(tracked) != len(want) {
			t.Fatalf("iter %d: tracked %d pages, want %d", iter, len(tracked), len(want))
		}
		for pn := range want {
			if !tracked[pn] {
				t.Fatalf("iter %d: page %d written but not tracked", iter, pn)
			}
		}
	}
}

func BenchmarkWrite4K(b *testing.B) {
	as := NewAddressSpace()
	as.Map(0, 1024*PageSize, ProtRW, KindAnon, "")
	buf := make([]byte, PageSize)
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as.Write(Addr((i%1024)*PageSize), buf)
	}
}

func BenchmarkChecksum64MiB(b *testing.B) {
	as := NewAddressSpace()
	as.Map(0, 16384*PageSize, ProtRW, KindAnon, "")
	buf := make([]byte, PageSize)
	for i := 0; i < 16384; i++ {
		buf[0] = byte(i)
		as.Write(Addr(i*PageSize), buf)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as.Checksum()
	}
}

// writePagesFixture maps newTestAS's layout with a mix of page states
// in the heap: page 2 written (has a frame), page 5 read (a page struct,
// still demand-zero) and page 7 pending a demand fill that writes
// through WriteDirect.
func writePagesFixture(t *testing.T) *AddressSpace {
	t.Helper()
	as := newTestAS(t)
	heap := Addr(0x600000)
	if err := as.Write(heap+2*PageSize+100, []byte("resident")); err != nil {
		t.Fatal(err)
	}
	if err := as.Read(heap+5*PageSize, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	filled := (heap + 7*PageSize).Page()
	as.SetDemandFill([]PageNum{filled}, func(pn PageNum) error {
		return as.WriteDirect(pn.Base(), []byte("filled"))
	})
	return as
}

// pageState is what a page write may change about one page.
type pageState struct {
	data    []byte
	dirty   bool
	version uint64
}

func pageStates(as *AddressSpace) map[PageNum]pageState {
	out := make(map[PageNum]pageState)
	for _, pi := range as.ResidentPages() {
		out[pi.Num] = pageState{append([]byte(nil), pi.Page.Data()...), pi.Page.Dirty(), pi.Page.Version()}
	}
	return out
}

// testPages is a PageSource that writes bytes i+1 over [lo, hi) of its
// i'th page, zero elsewhere: the whole page, or with partial set, the
// whole page, the middle or the head in turn.
type testPages struct {
	pns  []PageNum
	data [][]byte
	lo   []int
}

func newTestPages(pns []PageNum, partial bool) *testPages {
	src := &testPages{pns: pns}
	for i := range pns {
		lo, hi := 0, PageSize
		switch {
		case partial && i%3 == 1:
			lo, hi = 100, 3000
		case partial && i%3 == 2:
			hi = 17
		}
		src.data = append(src.data, bytes.Repeat([]byte{byte(i + 1)}, hi-lo))
		src.lo = append(src.lo, lo)
	}
	return src
}

func (s *testPages) Len() int           { return len(s.pns) }
func (s *testPages) Page(i int) PageNum { return s.pns[i] }
func (s *testPages) Apply(i int, frame []byte) {
	copy(frame[s.lo[i]:], s.data[i])
}
func (s *testPages) Final(i int, pieces [][]byte) [][]byte {
	if lo := s.lo[i]; lo > 0 {
		pieces = append(pieces, zeroPage[:lo])
	}
	pieces = append(pieces, s.data[i])
	if hi := s.lo[i] + len(s.data[i]); hi < PageSize {
		pieces = append(pieces, zeroPage[:PageSize-hi])
	}
	return pieces
}

// TestWritePagesMatchesMaterializeLoop: WritePages leaves every page
// exactly as a loop that materializes each page in turn, gives a
// demand-zero one a zeroed frame and applies its bytes does — data,
// dirty bits, versions and the version clock, demand fills included —
// at every shard count, and its frames are disjoint, clipped to a page.
// On a fault it stops at the same page the loop stops at.
func TestWritePagesMatchesMaterializeLoop(t *testing.T) {
	heap := Addr(0x600000).Page()
	var pns []PageNum
	for i := PageNum(0); i < 16; i++ {
		pns = append(pns, heap+i)
	}
	pns = append(pns, Addr(0x7ff00000).Page(), Addr(0x400000).Page())
	for _, tc := range []struct {
		name  string
		pns   []PageNum
		fails int // index of the unmapped page, or -1
	}{
		{"mapped", pns, -1},
		{"fault", append(append(append([]PageNum(nil), pns[:9]...), Addr(0x100000).Page()), pns[9:]...), 9},
	} {
		for _, shards := range []int{1, 2, 3, 8, 64} {
			loop, batch := writePagesFixture(t), writePagesFixture(t)
			src := newTestPages(tc.pns, true)
			want := 0
			var wantErr error
			for i, pn := range tc.pns {
				pg, err := loop.materialize(pn)
				if err != nil {
					wantErr = err
					break
				}
				if pg.data == nil {
					pg.data = make([]byte, PageSize)
				}
				src.Apply(i, pg.data)
				want++
			}
			got, err := batch.WritePages(src, shards)
			if (err == nil) != (wantErr == nil) || got != want {
				t.Fatalf("%s/%d: WritePages wrote %d pages, err %v; the loop %d, err %v", tc.name, shards, got, err, want, wantErr)
			}
			if tc.fails >= 0 && got != tc.fails {
				t.Fatalf("%s/%d: %d pages before the fault, want %d", tc.name, shards, got, tc.fails)
			}
			if !statesEqual(pageStates(batch), pageStates(loop)) || batch.versionClock != loop.versionClock {
				t.Fatalf("%s/%d: page states differ from the loop's", tc.name, shards)
			}
			// Fill every frame with its own index: no frame may reach
			// another.
			var frames [][]byte
			for _, pi := range batch.ResidentPages() {
				if d := pi.Page.Data(); d != nil {
					if cap(d) != PageSize {
						t.Fatalf("%s/%d: page %#x has frame cap %d", tc.name, shards, uint64(pi.Num.Base()), cap(d))
					}
					frames = append(frames, d)
				}
			}
			for i, f := range frames {
				for j := range f {
					f[j] = byte(i + 1)
				}
			}
			for i, f := range frames {
				if !bytes.Equal(f, bytes.Repeat([]byte{byte(i + 1)}, PageSize)) {
					t.Fatalf("%s/%d: a write through frame %d reached another", tc.name, shards, i)
				}
			}
		}
	}
}

// sameFrame reports whether a and b start at the same byte.
func sameFrame(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && unsafe.Pointer(&a[0]) == unsafe.Pointer(&b[0])
}

// TestWritePagesBorrowsWholePages: a demand-zero page whose final bytes
// are one full-page slice borrows that slice, capacity-clipped, and no
// frame bytes are allocated for it; the pages built from several pieces
// still sit back to back in one allocation per shard. The allocation
// count does not grow with the pages.
func TestWritePagesBorrowsWholePages(t *testing.T) {
	heap := Addr(0x600000)
	setup := func(n int, partial bool) (*AddressSpace, *testPages) {
		as := NewAddressSpace()
		if _, err := as.Map(heap, uint64(n)*PageSize, ProtRW, KindHeap, "[heap]"); err != nil {
			t.Fatal(err)
		}
		pns := make([]PageNum, n)
		for i := range pns {
			pns[i] = heap.Page() + PageNum(i)
			// A read makes the page struct, so the counts below are
			// WritePages' own.
			if err := as.Read(pns[i].Base(), make([]byte, 1)); err != nil {
				t.Fatal(err)
			}
		}
		return as, newTestPages(pns, partial)
	}
	for _, shards := range []int{1, 2, 4} {
		as, src := setup(64, true)
		if _, err := as.WritePages(src, shards); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < shards; s++ {
			var prev []byte
			for i := s * 64 / shards; i < (s+1)*64/shards; i++ {
				pg := as.vmas[0].pages[src.pns[i]]
				if cap(pg.data) != PageSize {
					t.Fatalf("shards %d: page %d has frame cap %d", shards, i, cap(pg.data))
				}
				if src.lo[i] == 0 && len(src.data[i]) == PageSize {
					if !pg.borrowed || !sameFrame(pg.data, src.data[i]) {
						t.Fatalf("shards %d: whole page %d did not borrow its final bytes", shards, i)
					}
					continue
				}
				if pg.borrowed {
					t.Fatalf("shards %d: mixed page %d is marked borrowed", shards, i)
				}
				if prev != nil && uintptr(unsafe.Pointer(&pg.data[0])) != uintptr(unsafe.Pointer(&prev[0]))+PageSize {
					t.Fatalf("shards %d: mixed pages of shard %d are not adjacent frames of one allocation", shards, s)
				}
				prev = pg.data
			}
		}
		allocs := func(n int, partial, write bool) float64 {
			return testing.AllocsPerRun(20, func() {
				as, src := setup(n, partial)
				if write {
					if _, err := as.WritePages(src, shards); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
		// Per shard: its piece list, the mixed pages' piece list and
		// frames, and, past the first, its goroutine; plus the page list
		// and some slack.
		ceiling := float64(4*shards + 3)
		for _, partial := range []bool{false, true} {
			small := allocs(16, partial, true) - allocs(16, partial, false)
			large := allocs(256, partial, true) - allocs(256, partial, false)
			t.Logf("shards %d, partial %v: %.0f allocations for 16 pages, %.0f for 256", shards, partial, small, large)
			if large > small || large > ceiling {
				t.Fatalf("shards %d, partial %v: WritePages made %.0f allocations for 16 pages and %.0f for 256; want at most %.0f, not growing with the pages",
					shards, partial, small, large, ceiling)
			}
		}
		// Whole pages cost no frame bytes: what WritePages allocates for
		// 256 of them is bookkeeping, well under one page per page.
		as, src = setup(256, false)
		before := totalAlloc()
		if _, err := as.WritePages(src, shards); err != nil {
			t.Fatal(err)
		}
		if got := totalAlloc() - before; got > 256*PageSize/16 {
			t.Fatalf("shards %d: WritePages allocated %d bytes for 256 whole pages", shards, got)
		}
	}
}

// totalAlloc reads the monotonic cumulative allocation counter.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// borrowedFixture writes 4 whole pages of the heap through WritePages,
// so each borrows its source bytes, and returns the address space, the
// source and a copy of its bytes.
func borrowedFixture(t *testing.T) (*AddressSpace, *testPages, [][]byte) {
	t.Helper()
	as := newTestAS(t)
	heap := Addr(0x600000).Page()
	src := newTestPages([]PageNum{heap, heap + 1, heap + 2, heap + 3}, false)
	if _, err := as.WritePages(src, 2); err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for _, d := range src.data {
		want = append(want, bytes.Clone(d))
	}
	return as, src, want
}

// readPage returns the n'th heap page's contents.
func readPage(t *testing.T, as *AddressSpace, n int) []byte {
	t.Helper()
	buf := make([]byte, PageSize)
	if err := as.ReadDirect(Addr(0x600000)+Addr(n)*PageSize, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestBorrowedPagesCopyOnWrite: a store, a WriteDirect and a second
// WritePages onto borrowed pages each write a private copy: the page
// holds the write, and the bytes it borrowed do not change.
func TestBorrowedPagesCopyOnWrite(t *testing.T) {
	as, src, want := borrowedFixture(t)
	heap := Addr(0x600000)
	if err := as.Write(heap+10, []byte("store")); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteDirect(heap+PageSize+20, []byte("direct")); err != nil {
		t.Fatal(err)
	}
	again := newTestPages([]PageNum{(heap + 2*PageSize).Page()}, false)
	again.data[0] = bytes.Repeat([]byte{0xEE}, PageSize)
	if _, err := as.WritePages(again, 1); err != nil {
		t.Fatal(err)
	}
	for i, d := range src.data {
		if !bytes.Equal(d, want[i]) {
			t.Fatalf("a write to page %d reached the bytes it borrowed", i)
		}
	}
	for i, tc := range []struct {
		off  int
		data []byte
	}{{10, []byte("store")}, {20, []byte("direct")}, {0, again.data[0]}} {
		got := readPage(t, as, i)
		if !bytes.Equal(got[tc.off:tc.off+len(tc.data)], tc.data) {
			t.Fatalf("page %d does not hold its write", i)
		}
		if tc.off > 0 && !bytes.Equal(got[:tc.off], want[i][:tc.off]) {
			t.Fatalf("page %d lost its borrowed bytes around the write", i)
		}
		a := heap + Addr(i)*PageSize
		if pg := as.Find(a).peek(a.Page()); pg.borrowed || sameFrame(pg.data, src.data[i]) {
			t.Fatalf("page %d still borrows after a write", i)
		}
	}
	if !bytes.Equal(readPage(t, as, 3), want[3]) {
		t.Fatal("an unwritten borrowed page changed")
	}
}

// TestCloneOfBorrowedPages: a clone of an address space with borrowed
// pages reads the same bytes, and a write on either side reaches
// neither the other side nor the borrowed bytes.
func TestCloneOfBorrowedPages(t *testing.T) {
	as, src, want := borrowedFixture(t)
	cl := as.Clone()
	if !as.Equal(cl) {
		t.Fatal("clone not Equal to original")
	}
	heap := Addr(0x600000)
	for i := range src.data {
		if err := as.Write(heap+Addr(i)*PageSize, []byte("parent")); err != nil {
			t.Fatal(err)
		}
		if err := cl.Write(heap+Addr(i)*PageSize+8, []byte("child")); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range src.data {
		if !bytes.Equal(d, want[i]) {
			t.Fatalf("a write to page %d reached the bytes it borrowed", i)
		}
		p, c := readPage(t, as, i), readPage(t, cl, i)
		if string(p[:6]) != "parent" || !bytes.Equal(p[6:], want[i][6:]) {
			t.Fatalf("page %d of the parent holds the wrong bytes", i)
		}
		if !bytes.Equal(c[:8], want[i][:8]) || string(c[8:13]) != "child" || !bytes.Equal(c[13:], want[i][13:]) {
			t.Fatalf("page %d of the clone holds the wrong bytes", i)
		}
	}
}

func bytesEqual(a, b []byte) bool { return string(a) == string(b) }

func statesEqual(a, b map[PageNum]pageState) bool {
	if len(a) != len(b) {
		return false
	}
	for pn, s := range a {
		o, ok := b[pn]
		if !ok || s.dirty != o.dirty || s.version != o.version || !bytesEqual(s.data, o.data) {
			return false
		}
	}
	return true
}

// isZeroBytewise is the byte-at-a-time loop isZero replaced, kept as
// its reference.
func isZeroBytewise(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// TestIsZeroMatchesBytewise checks isZero against the bytewise loop at
// every length up to a page and across page multiples: all zero, with a
// nonzero last byte, and, for lengths up to 80, with a single nonzero
// byte at each position.
func TestIsZeroMatchesBytewise(t *testing.T) {
	buf := make([]byte, 3*PageSize+5)
	check := func(b []byte) {
		t.Helper()
		if got, want := isZero(b), isZeroBytewise(b); got != want {
			t.Fatalf("isZero(len %d) = %v, want %v", len(b), got, want)
		}
	}
	lengths := []int{2 * PageSize, 2*PageSize + 1, 3*PageSize + 5}
	for n := 0; n <= PageSize; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		b := buf[:n]
		check(b)
		if n == 0 {
			continue
		}
		b[n-1] = 1
		check(b)
		b[n-1] = 0
		if n <= 80 {
			for i := range b {
				b[i] = 0x80
				check(b)
				b[i] = 0
			}
		}
	}
}
