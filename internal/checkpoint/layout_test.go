package checkpoint

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/simos/kernel"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
	"repro/internal/storage"
	"repro/internal/workload"
)

// captureCase is one capture shape of a stopped 4 MiB Dense process.
type captureCase struct {
	name    string
	trk     Tracker
	parent  string
	workers int
}

// captureCases returns a full capture and a delta of every 20th page of
// the process's largest VMA (about 5% of it), each sequential and with
// two workers.
func captureCases(p *proc.Process) []captureCase {
	var arena *mem.VMA
	for _, v := range p.AS.VMAs() {
		if arena == nil || v.Length > arena.Length {
			arena = v
		}
	}
	var dirty []Range
	for pn := 0; pn < arena.NumPages(); pn += 20 {
		dirty = append(dirty, Range{Addr: arena.Start + mem.Addr(pn*mem.PageSize), Length: mem.PageSize})
	}
	var out []captureCase
	for _, w := range []int{1, 2} {
		out = append(out,
			captureCase{name: fmt.Sprintf("full/workers=%d", w), workers: w},
			captureCase{name: fmt.Sprintf("delta/workers=%d", w), workers: w,
				trk: &stubTracker{rounds: [][]Range{dirty}}, parent: "ckpt/pid1/seq1"})
	}
	return out
}

func (c captureCase) request(k *kernel.Kernel, p *proc.Process, tgt storage.Target) Request {
	return Request{
		Acc: &KernelAccessor{K: k, P: p}, Trk: c.trk, Target: tgt, Env: storage.NopEnv(),
		Mechanism: "test", Hostname: "src", Seq: 2, Parent: c.parent, Now: k.Now(),
		Parallelism: c.workers,
	}
}

// parentTarget returns a store holding the delta cases' parent object,
// so their parent check passes.
func parentTarget(t testing.TB) storage.Target {
	t.Helper()
	tgt := storage.NewMemory("tgt", nil)
	if err := storage.Write(tgt, "ckpt/pid1/seq1", []byte("parent"), storage.WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	return tgt
}

// TestCaptureStoresSealedLayout: the object Capture stores is exactly
// what either encoder makes of the image it returns, for full and delta
// captures, sequential and sharded, and what the same capture without a
// target encodes to; and every captured extent is a capacity-clipped
// sub-slice of that stored object, in its own slot.
func TestCaptureStoresSealedLayout(t *testing.T) {
	k, p := stoppedProc(t, 4)
	for _, c := range captureCases(p) {
		tgt := parentTarget(t)
		req := c.request(k, p, tgt)
		img, st, err := Capture(req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		stored, err := tgt.ReadObject(img.ObjectName(), nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if st.EncodedBytes != len(stored) || img.NumExtents() == 0 {
			t.Fatalf("%s: encoded %d bytes, stored %d, %d extents", c.name, st.EncodedBytes, len(stored), img.NumExtents())
		}
		for _, w := range []int{1, 2} {
			enc, err := img.EncodeParallelBytes(w)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, stored) {
				t.Fatalf("%s: stored object differs from EncodeParallelBytes(%d)", c.name, w)
			}
		}
		req.Target = nil
		unsealed, _, err := Capture(req)
		if err != nil {
			t.Fatal(err)
		}
		if enc, err := unsealed.EncodeBytes(); err != nil || !bytes.Equal(enc, stored) {
			t.Fatalf("%s: the nil-target capture encodes differently from the stored object (%v)", c.name, err)
		}
		// Decode parses in place, so its extents mark each slot of the
		// stored buffer.
		slots, err := Decode(stored)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range img.VMAs {
			for j, e := range v.Extents {
				slot := slots.VMAs[i].Extents[j].Data
				if &e.Data[0] != &slot[0] || len(e.Data) != len(slot) || cap(e.Data) != len(e.Data) {
					t.Fatalf("%s: extent %d/%d (len %d cap %d) is not its clipped slot of the stored object",
						c.name, i, j, len(e.Data), cap(e.Data))
				}
			}
		}
	}
}

// TestCaptureAllocationCeiling pins the one-buffer capture: a full 4 MiB
// capture and a 5% delta each allocate at most 1.15x their encoded size,
// where an extent buffer plus a separate encoding would be about 2x.
func TestCaptureAllocationCeiling(t *testing.T) {
	k, p := stoppedProc(t, 4)
	for _, c := range captureCases(p) {
		tgt := parentTarget(t)
		req := c.request(k, p, tgt)
		before := totalAlloc()
		_, st, err := Capture(req)
		grew := totalAlloc() - before
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d bytes allocated for %d encoded (%.3fx)", c.name, grew, st.EncodedBytes, float64(grew)/float64(st.EncodedBytes))
		if limit := uint64(float64(st.EncodedBytes) * 1.15); grew > limit {
			t.Errorf("%s: capture allocated %d bytes for a %d-byte image (limit %d)", c.name, grew, st.EncodedBytes, limit)
		}
	}
}

// TestEncodeSealsCaptureLayout pins one buffer per image that leaves a
// capture unencoded (a pipelined round, a migration): the capture
// without a target and its first encode allocate at most 1.1x the
// encoded size of a full 4 MiB image, where copying into a second buffer
// would be about 2x. A 5% delta gets TestCaptureAllocationCeiling's
// 1.15x: the sharded encode's fixed cost is a larger share of it. That
// encode returns the buffer the extents sit in; a second encode writes
// the same bytes into a fresh one.
func TestEncodeSealsCaptureLayout(t *testing.T) {
	k, p := stoppedProc(t, 4)
	for _, c := range captureCases(p) {
		before := totalAlloc()
		img, _, err := Capture(c.request(k, p, nil))
		if err != nil {
			t.Fatal(err)
		}
		enc, err := img.EncodeParallelBytes(c.workers)
		grew := totalAlloc() - before
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d bytes allocated for %d encoded (%.3fx)", c.name, grew, len(enc), float64(grew)/float64(len(enc)))
		ratio := 1.1
		if c.trk != nil {
			ratio = 1.15
		}
		if limit := uint64(float64(len(enc)) * ratio); grew > limit {
			t.Errorf("%s: capture and encode allocated %d bytes for a %d-byte image (limit %d)", c.name, grew, len(enc), limit)
		}
		slots, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range img.VMAs {
			for j, e := range v.Extents {
				if &e.Data[0] != &slots.VMAs[i].Extents[j].Data[0] {
					t.Fatalf("%s: extent %d/%d is not in the returned encoding", c.name, i, j)
				}
			}
		}
		again, err := img.EncodeParallelBytes(c.workers)
		if err != nil || !bytes.Equal(again, enc) || &again[0] == &enc[0] {
			t.Fatalf("%s: a second encode must write the same bytes into a fresh buffer (%v)", c.name, err)
		}
	}
}

// TestEncodeMovedLayoutUsesFreshBuffer: a captured image whose metadata
// changed so that its extents' slots moved, at the same encoded size (a
// longer Exe, a shorter last section name), encodes into a fresh
// buffer; sealing in place would copy extents over one another.
func TestEncodeMovedLayoutUsesFreshBuffer(t *testing.T) {
	k, p := stoppedProc(t, 4)
	c := captureCases(p)[0]
	img, _, err := Capture(c.request(k, p, nil))
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for _, v := range img.VMAs {
		for _, e := range v.Extents {
			want = append(want, bytes.Clone(e.Data))
		}
	}
	size := encodedSize(img.encode)
	last := &img.VMAs[len(img.VMAs)-1]
	if len(last.Name) < 2 {
		t.Fatalf("last section name %q is too short to shift the layout", last.Name)
	}
	img.Exe += "xx"
	last.Name = last.Name[2:]
	enc, err := img.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != size {
		t.Fatalf("encoded size %d, want the layout's %d", len(enc), size)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for vi, v := range img.VMAs {
		for ei, e := range v.Extents {
			if !bytes.Equal(e.Data, want[i]) || !bytes.Equal(dec.VMAs[vi].Extents[ei].Data, want[i]) {
				t.Fatalf("extent %d/%d changed by an encode after its slot moved", vi, ei)
			}
			i++
		}
	}
}

// TestEncodeLeavesDecodedBlob: a decoded image's extents alias the
// stored object, so its encode writes a fresh buffer and leaves the
// object untouched.
func TestEncodeLeavesDecodedBlob(t *testing.T) {
	for i, blob := range benchChainBlobs(t) {
		want := bytes.Clone(blob)
		img, err := Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := img.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, want) || !bytes.Equal(enc, want) || &enc[0] == &blob[0] {
			t.Fatalf("image %d: encoding a decoded image touched or reused its blob", i)
		}
	}
}

// TestFoldEncodedChainSealsFoldChain: the folded object is FoldChain's
// image encoded, and the folded image's extents are capacity-clipped.
func TestFoldEncodedChainSealsFoldChain(t *testing.T) {
	blobs := benchChainBlobs(t)
	chain := make([]*Image, len(blobs))
	for i, b := range blobs {
		img, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		chain[i] = img
	}
	folded, err := FoldChain(chain)
	if err != nil {
		t.Fatal(err)
	}
	want, err := folded.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := FoldEncodedChain(blobs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("FoldEncodedChain (%d bytes) differs from FoldChain + EncodeBytes (%d bytes)", len(got), len(want))
	}
	for _, v := range folded.VMAs {
		for _, e := range v.Extents {
			if cap(e.Data) != len(e.Data) {
				t.Fatalf("folded extent %#x: cap %d, len %d", uint64(e.Addr), cap(e.Data), len(e.Data))
			}
		}
	}
}

// TestSharedFramesStayIndependent: an eager restore gives its pages
// frames that share memory (one allocation per shard, or the image's
// bytes), yet a full-page write to one restored page leaves every other
// page as it was, and an append to a page's Data reallocates rather
// than spilling into the next frame.
func TestSharedFramesStayIndependent(t *testing.T) {
	remote, leaf := buildTestChain(t)
	chain, err := LoadChain(remote, storage.NopEnv(), leaf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Restore(newMachine("dst", workload.Sparse{MiB: 2, WriteFrac: 0.15, Seed: 42}), chain, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() map[mem.PageNum][]byte {
		out := make(map[mem.PageNum][]byte)
		for _, pi := range p.AS.ResidentPages() {
			out[pi.Num] = append([]byte(nil), pi.Page.Data()...)
		}
		return out
	}
	pages := p.AS.ResidentPages()
	if len(pages) < 3 {
		t.Fatalf("restore materialized %d pages", len(pages))
	}
	for _, pi := range pages {
		if d := pi.Page.Data(); d != nil && cap(d) != mem.PageSize {
			t.Fatalf("page %#x: frame cap %d", uint64(pi.Num.Base()), cap(d))
		}
	}
	victim := pages[len(pages)/2]
	before := snapshot()
	fill := bytes.Repeat([]byte{0xA5}, mem.PageSize)
	if err := p.AS.WriteDirect(victim.Num.Base(), fill); err != nil {
		t.Fatal(err)
	}
	_ = append(pages[0].Page.Data(), 0xFF)
	after := snapshot()
	for pn, was := range before {
		if pn == victim.Num {
			if !bytes.Equal(after[pn], fill) {
				t.Fatal("the written page does not hold the write")
			}
			continue
		}
		if !bytes.Equal(after[pn], was) {
			t.Fatalf("page %#x changed after writing page %#x", uint64(pn.Base()), uint64(victim.Num.Base()))
		}
	}
}
