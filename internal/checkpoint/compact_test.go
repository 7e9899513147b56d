package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/simos/mem"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestFoldChainEquivalence: restoring the folded image must be
// byte-identical to replaying the chain it replaces, and the fold must
// keep the leaf's object identity so children and chain walks are
// unaffected.
func TestFoldChainEquivalence(t *testing.T) {
	remote, leaf := buildTestChain(t)
	chain, err := LoadChain(remote, storage.NopEnv(), leaf)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 {
		t.Fatalf("chain length %d, want 3", len(chain))
	}
	folded, err := FoldChain(chain)
	if err != nil {
		t.Fatal(err)
	}
	if folded.Mode != ModeFull || folded.Parent != "" {
		t.Fatalf("folded image Mode=%v Parent=%q, want full/orphan", folded.Mode, folded.Parent)
	}
	if folded.ObjectName() != chain[len(chain)-1].ObjectName() {
		t.Fatalf("folded name %s != leaf name %s", folded.ObjectName(), chain[len(chain)-1].ObjectName())
	}

	prog := workload.Sparse{MiB: 2, WriteFrac: 0.15, Seed: 42}
	viaChain := newMachine("via-chain", prog)
	p1, err := Restore(viaChain, chain, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	viaFold := newMachine("via-fold", prog)
	p2, err := Restore(viaFold, []*Image{folded}, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c1, c2 := p1.AS.Checksum(), p2.AS.Checksum(); c1 != c2 {
		t.Fatalf("folded restore checksum %#x != chain restore %#x", c2, c1)
	}

	// The encoded round trip used by the storage-side compactor.
	var blobs [][]byte
	for _, img := range chain {
		b, err := img.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	enc, err := FoldEncodedChain(blobs)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	viaEnc := newMachine("via-enc", prog)
	p3, err := Restore(viaEnc, []*Image{dec}, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c1, c3 := p1.AS.Checksum(), p3.AS.Checksum(); c1 != c3 {
		t.Fatalf("encoded-fold restore checksum %#x != chain restore %#x", c3, c1)
	}
}

// TestFoldChainCoalescesExtents: page-granular deltas over contiguous
// pages must fold back into one long extent, not one extent per page.
func TestFoldChainCoalescesExtents(t *testing.T) {
	page := func(fill byte) []byte {
		b := make([]byte, mem.PageSize)
		for i := range b {
			b[i] = fill
		}
		return b
	}
	full := &Image{
		Mode: ModeFull, PID: 1, Seq: 1, Exe: "x",
		Threads: []ThreadRecord{{TID: 1}},
		VMAs: []VMASection{{Start: 0x1000, Length: 0x3000, Kind: mem.KindHeap,
			Extents: []Extent{{Addr: 0x1000, Data: page(1)}, {Addr: 0x2000, Data: page(2)}}}},
	}
	delta := &Image{
		Mode: ModeIncremental, PID: 1, Seq: 2, Exe: "x", Parent: full.ObjectName(),
		Threads: []ThreadRecord{{TID: 1}},
		VMAs: []VMASection{{Start: 0x1000, Length: 0x3000, Kind: mem.KindHeap,
			Extents: []Extent{{Addr: 0x2000, Data: page(3)}, {Addr: 0x3000, Data: page(4)}}}},
	}
	folded, err := FoldChain([]*Image{full, delta})
	if err != nil {
		t.Fatal(err)
	}
	if len(folded.VMAs) != 1 || len(folded.VMAs[0].Extents) != 1 {
		t.Fatalf("folded extents = %d, want 1 coalesced run", len(folded.VMAs[0].Extents))
	}
	e := folded.VMAs[0].Extents[0]
	if e.Addr != 0x1000 || len(e.Data) != 3*mem.PageSize {
		t.Fatalf("folded extent [%#x,+%d), want [0x1000,+%d)", uint64(e.Addr), len(e.Data), 3*mem.PageSize)
	}
	if e.Data[0] != 1 || e.Data[mem.PageSize] != 3 || e.Data[2*mem.PageSize] != 4 {
		t.Fatal("folded contents are not last-writer-wins")
	}
}

// TestFoldChainMergesChainedOverlaps: a span that bridges two earlier,
// disjoint spans of its page joins all three into one covered interval.
// A pairwise merge that checked only the spans before the newest one
// left two overlapping extents, and the fold failed its own Verify.
func TestFoldChainMergesChainedOverlaps(t *testing.T) {
	fill := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }
	full := &Image{
		Mode: ModeFull, PID: 1, Seq: 1, Exe: "x",
		Threads: []ThreadRecord{{TID: 1}},
		VMAs: []VMASection{{Start: 0x1000, Length: 0x1000, Kind: mem.KindHeap,
			Extents: []Extent{{Addr: 0x1000, Data: fill(1, 5)}, {Addr: 0x100a, Data: fill(2, 5)}}}},
	}
	delta := &Image{
		Mode: ModeIncremental, PID: 1, Seq: 2, Exe: "x", Parent: full.ObjectName(),
		Threads: []ThreadRecord{{TID: 1}},
		VMAs: []VMASection{{Start: 0x1000, Length: 0x1000, Kind: mem.KindHeap,
			Extents: []Extent{{Addr: 0x1004, Data: fill(3, 7)}}}},
	}
	folded, err := FoldChain([]*Image{full, delta})
	if err != nil {
		t.Fatal(err)
	}
	if len(folded.VMAs[0].Extents) != 1 {
		t.Fatalf("folded extents = %d, want 1 merged run", len(folded.VMAs[0].Extents))
	}
	e := folded.VMAs[0].Extents[0]
	want := append(append(fill(1, 4), fill(3, 7)...), fill(2, 4)...)
	if e.Addr != 0x1000 || !bytes.Equal(e.Data, want) {
		t.Fatalf("folded extent %#x %v, want 0x1000 %v", uint64(e.Addr), e.Data, want)
	}
}

// TestFoldChainRejectsBrokenChain: folding goes through VerifyChain.
func TestFoldChainRejectsBrokenChain(t *testing.T) {
	full := &Image{Mode: ModeFull, PID: 1, Seq: 1, Exe: "x"}
	stranger := &Image{Mode: ModeIncremental, PID: 1, Seq: 5, Parent: "ckpt/pid1/seq4", Exe: "x"}
	if _, err := FoldChain([]*Image{full, stranger}); err == nil {
		t.Fatal("fold of a broken chain succeeded")
	}
	if _, err := FoldChain(nil); err == nil {
		t.Fatal("fold of an empty chain succeeded")
	}
}

// TestMergeRangesContainment covers the interval-coalescing rewrite on
// shapes the page-expansion implementation handled implicitly: exact
// duplicates, full containment, and sub-page range lengths.
func TestMergeRangesContainment(t *testing.T) {
	pg := func(n int) mem.Addr { return mem.Addr(n * mem.PageSize) }
	a := []Range{{Addr: pg(1), Length: 4 * mem.PageSize}}
	b := []Range{
		{Addr: pg(2), Length: mem.PageSize},     // contained
		{Addr: pg(1), Length: 4 * mem.PageSize}, // duplicate
	}
	got := mergeRanges(a, b)
	want := []Range{{Addr: pg(1), Length: 4 * mem.PageSize}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mergeRanges = %v, want %v", got, want)
	}
	// Adjacent-but-not-overlapping coalesces too.
	got = mergeRanges([]Range{{Addr: pg(1), Length: mem.PageSize}},
		[]Range{{Addr: pg(2), Length: mem.PageSize}})
	want = []Range{{Addr: pg(1), Length: 2 * mem.PageSize}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("adjacent mergeRanges = %v, want %v", got, want)
	}
}

// foldGolden is the SHA-256 of FoldEncodedChain's output on the 17-image
// chain of the replay benchmarks. A change to how the fold lays out its
// extents must leave the encoded image byte-identical.
const foldGolden = "fc7138382f4c55a2311d69718dd8a4274a94fb996b83a84cecb2d8dfbffeb9e8"

// Each folded extent is allocated once at its final size, so its
// capacity equals its length.
func TestFoldEncodedChainGolden(t *testing.T) {
	blobs := benchChainBlobs(t)
	out, err := FoldEncodedChain(blobs)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != foldGolden {
		t.Fatalf("folded image sha256 %s, want %s", got, foldGolden)
	}
	chain := make([]*Image, len(blobs))
	for i, b := range blobs {
		if chain[i], err = Decode(b); err != nil {
			t.Fatal(err)
		}
	}
	folded, err := FoldChain(chain)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range folded.VMAs {
		for _, e := range v.Extents {
			if cap(e.Data) != len(e.Data) {
				t.Fatalf("extent %#x: cap %d, len %d", uint64(e.Addr), cap(e.Data), len(e.Data))
			}
		}
	}
}
