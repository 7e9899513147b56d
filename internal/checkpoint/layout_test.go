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
// frames from one allocation, yet a full-page write to one restored page
// leaves every other page as it was, and an append to a page's Data
// reallocates rather than spilling into the next frame.
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
