package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/simos/mem"
	"repro/internal/storage"
	"repro/internal/workload"
)

// piecesImage is the corpus image plus what a cut must not disturb: an
// extent of three and a half pages that starts off a page boundary, and
// an empty extent.
func piecesImage() *Image {
	img := corpusImage()
	big := make([]byte, 3*mem.PageSize+mem.PageSize/2)
	rand.New(rand.NewSource(31)).Read(big)
	img.VMAs = append(img.VMAs, VMASection{
		Start: 0x20000, Length: 0x5000, Kind: mem.KindAnon, Name: "big", Prot: mem.ProtRead | mem.ProtWrite,
		Extents: []Extent{{Addr: 0x20100, Data: big}, {Addr: 0x24000, Data: []byte{}}},
	})
	return img
}

// cut splits b at the given offsets, in order.
func cut(b []byte, at ...int) [][]byte {
	var out [][]byte
	prev := 0
	for _, a := range at {
		out = append(out, b[prev:a])
		prev = a
	}
	return append(out, b[prev:])
}

// mergedExtents returns img's sections with every run of adjacent
// extents (each starting where the previous one ends) merged into one,
// so an image decoded from pieces compares equal to one decoded whole.
func mergedExtents(img *Image) *Image {
	out := *img
	out.VMAs = make([]VMASection, len(img.VMAs))
	for i, v := range img.VMAs {
		v.Extents = nil
		for _, e := range img.VMAs[i].Extents {
			if n := len(v.Extents); n > 0 && v.Extents[n-1].Addr+mem.Addr(len(v.Extents[n-1].Data)) == e.Addr {
				last := &v.Extents[n-1]
				last.Data = append(bytes.Clone(last.Data), e.Data...)
				continue
			}
			v.Extents = append(v.Extents, Extent{Addr: e.Addr, Data: bytes.Clone(e.Data)})
		}
		out.VMAs[i] = v
	}
	return &out
}

// replayChecksum lays out img's sections in a fresh address space, as a
// restore maps its leaf, replays img's extents through the restore's
// planner, and returns the memory checksum.
func replayChecksum(img *Image) (uint64, error) {
	as := mem.NewAddressSpace()
	for _, v := range img.VMAs {
		if _, err := as.Map(v.Start, v.Length, v.Prot|mem.ProtRW, v.Kind, v.Name); err != nil {
			return 0, err
		}
	}
	plan, err := planReplay([]*Image{img})
	if err != nil {
		return 0, err
	}
	if err := applyPlan(as, &plan, 1); err != nil {
		return 0, err
	}
	return as.Checksum(), nil
}

// checkPiecesDecode decodes data whole and as pieces and demands the
// same verdict, the same image once adjacent extents are merged, and,
// for a small enough layout, the same replayed memory.
func checkPiecesDecode(t *testing.T, data []byte, pieces [][]byte) (*Image, error) {
	t.Helper()
	whole, werr := Decode(data)
	img, err := DecodePieces(pieces)
	if (err == nil) != (werr == nil) {
		t.Fatalf("DecodePieces err = %v, Decode err = %v", err, werr)
	}
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(mergedExtents(img), mergedExtents(whole)) {
		t.Fatalf("DecodePieces image differs from Decode's:\n%+v\n%+v", img, whole)
	}
	mapped := uint64(0)
	for _, v := range img.VMAs {
		mapped += v.Length
	}
	if mapped > 1<<20 {
		return img, nil
	}
	sum, err := replayChecksum(img)
	wsum, werr := replayChecksum(whole)
	if (err == nil) != (werr == nil) || sum != wsum {
		t.Fatalf("replaying the pieces' image: %#x, %v; the whole image's: %#x, %v", sum, err, wsum, werr)
	}
	return img, nil
}

// TestDecodePiecesMatchesDecode cuts one encoding wherever a field can
// be split — inside the trailer, a header integer, a string, an extent,
// at an empty extent, at a page boundary inside an extent — and into
// empty pieces: each decodes to Decode's image. A flipped byte on
// either side of a cut is a checksum error.
func TestDecodePiecesMatchesDecode(t *testing.T) {
	enc, err := piecesImage().EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	big := piecesImage().VMAs[2].Extents[0].Data
	bigAt := bytes.Index(enc, big)
	abcdAt := bytes.Index(enc, []byte("abcd"))
	if bigAt < 0 || abcdAt < 0 {
		t.Fatal("extent bytes not found in the encoding")
	}
	emptyAt := bigAt + len(big) + 8 + 4 // the empty extent's address and length follow
	toPage := int(mem.PageSize - mem.Addr(0x20100).Offset())
	cases := []struct {
		name   string
		pieces [][]byte
	}{
		{"one piece", cut(enc)},
		{"inside the trailer", cut(enc, len(enc)-3)},
		{"before the trailer", cut(enc, len(enc)-8)},
		{"inside the magic", cut(enc, 2)},
		{"inside a string length", cut(enc, 8)},
		{"inside a string", cut(enc, 12)},
		{"inside a small extent", cut(enc, abcdAt+2)},
		{"inside a page of an extent", cut(enc, bigAt+5000)},
		{"at a page boundary inside an extent", cut(enc, bigAt+toPage)},
		{"a byte after a page boundary", cut(enc, bigAt+toPage+1)},
		{"three cuts in one page", cut(enc, bigAt+100, bigAt+101, bigAt+3000)},
		{"across three pages", cut(enc, bigAt+10, bigAt+2*mem.PageSize+7)},
		{"at an empty extent", cut(enc, emptyAt)},
		{"empty pieces", [][]byte{nil, enc[:100], {}, {}, enc[100:], nil}},
		{"only empty pieces and one", [][]byte{{}, enc, nil}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img, err := checkPiecesDecode(t, enc, tc.pieces)
			if err != nil {
				t.Fatal(err)
			}
			last := img.VMAs[2].Extents[len(img.VMAs[2].Extents)-1]
			if last.Addr != 0x24000 || last.Data == nil || len(last.Data) != 0 {
				t.Fatalf("the empty extent decoded as %+v, want one empty extent", last)
			}
		})
	}
	for _, at := range []int{12, bigAt + 5000, len(enc) - 3} {
		for side := 0; side < 2; side++ {
			flipped := bytes.Clone(enc)
			i := at - 1
			if side == 1 {
				i = at
			}
			flipped[i] ^= 0x10
			if _, err := DecodePieces(cut(flipped, at)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut at %d, byte %d flipped: err = %v, want ErrCorrupt", at, i, err)
			}
		}
	}
	for _, pieces := range [][][]byte{nil, {}, {nil, enc[:7]}, {enc[:3], enc[len(enc)-4:]}} {
		if _, err := DecodePieces(pieces); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodePieces of %d short pieces: err = %v, want ErrCorrupt", len(pieces), err)
		}
	}
}

// TestDecodePiecesBorrowsStraddlingExtents: an extent that crosses a cut
// is not copied. Its pages inside one piece alias that piece, and only
// the page the cut falls in is copied, as one extent within that page.
// Every page of it is still one slice, so the replay plan — each page's
// spans, and the bytes copied and pruned — is the whole image's.
func TestDecodePiecesBorrowsStraddlingExtents(t *testing.T) {
	enc, err := piecesImage().EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	whole, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	bigAt := bytes.Index(enc, whole.VMAs[2].Extents[0].Data)
	for _, at := range [][]int{{bigAt + 5000}, {bigAt + 100, bigAt + 101, bigAt + 9000}} {
		pieces := cut(enc, at...)
		img, err := DecodePieces(pieces)
		if err != nil {
			t.Fatal(err)
		}
		copied := 0
		for _, e := range img.VMAs[2].Extents {
			if len(e.Data) == 0 || within(e.Data, pieces) {
				continue
			}
			copied += len(e.Data)
			if e.Addr.Page() != (e.Addr + mem.Addr(len(e.Data)) - 1).Page() {
				t.Fatalf("cuts %v: copied extent %#x+%d spans pages", at, uint64(e.Addr), len(e.Data))
			}
		}
		if copied > len(at)*mem.PageSize {
			t.Fatalf("cuts %v: %d extent bytes copied, want at most a page per cut", at, copied)
		}
		got, err := planReplay([]*Image{img})
		if err != nil {
			t.Fatal(err)
		}
		want, err := planReplay([]*Image{whole})
		if err != nil {
			t.Fatal(err)
		}
		if got.copied != want.copied || got.pruned != want.pruned || len(got.jobs) != len(want.jobs) {
			t.Fatalf("cuts %v: plan copies %d, prunes %d in %d jobs; whole image %d, %d in %d",
				at, got.copied, got.pruned, len(got.jobs), want.copied, want.pruned, len(want.jobs))
		}
		for i, j := range got.jobs {
			w := want.jobs[i]
			if j.page != w.page || len(j.spans) != len(w.spans) {
				t.Fatalf("cuts %v: job %d is page %d with %d spans, want page %d with %d", at, i, j.page, len(j.spans), w.page, len(w.spans))
			}
			for s := range j.spans {
				if j.spans[s].off != w.spans[s].off || !bytes.Equal(j.spans[s].data, w.spans[s].data) {
					t.Fatalf("cuts %v: page %d span %d differs", at, j.page, s)
				}
			}
		}
	}
}

// FuzzImageDecodePieces cuts an input at up to three points: DecodePieces
// must accept exactly what Decode accepts, decode the same image once
// adjacent extents are merged, replay it to the same memory, and leave
// its pieces untouched.
func FuzzImageDecodePieces(f *testing.F) {
	enc, err := piecesImage().EncodeBytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc, uint16(12), uint16(700), uint16(4000))
	f.Add(corpusBytes(f), uint16(3), uint16(0), uint16(0))
	f.Add(enc, uint16(len(enc)-3), uint16(len(enc)-1), uint16(len(enc)))
	f.Add([]byte("short"), uint16(1), uint16(2), uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, a, b, c uint16) {
		at := []int{int(a), int(b), int(c)}
		for i := range at {
			at[i] = min(at[i], len(data))
		}
		// Sorted, so the pieces are in order; equal points give empty pieces.
		for i := 1; i < len(at); i++ {
			for j := i; j > 0 && at[j] < at[j-1]; j-- {
				at[j], at[j-1] = at[j-1], at[j]
			}
		}
		orig := bytes.Clone(data)
		_, _ = checkPiecesDecode(t, data, cut(data, at...))
		if !bytes.Equal(data, orig) {
			t.Fatal("DecodePieces modified its input")
		}
	})
}

// replicatedChain copies a links-image chain onto a 2+1 erasure set of
// three local disks, each with its own liveness switch, and returns the
// set, the switches, the disks and the chain's names, oldest first.
func replicatedChain(tb testing.TB, links int) (*storage.Replicated, []bool, []*storage.Local, []string) {
	tb.Helper()
	remote, leaf := buildChain(tb, links)
	chain, err := LoadChain(remote, nil, leaf)
	if err != nil {
		tb.Fatal(err)
	}
	cm := costmodel.Default2005()
	up := []bool{true, true, true}
	var disks []*storage.Local
	var reps []storage.Replica
	for i := range up {
		i := i
		d := storage.NewLocal(fmt.Sprintf("d%d", i), cm, func() bool { return up[i] })
		disks = append(disks, d)
		reps = append(reps, storage.Replica{T: d, Role: storage.RoleShard})
	}
	r, err := storage.NewReplicated("ec", reps, storage.ReplicatedConfig{DataShards: 2, ParityShards: 1})
	if err != nil {
		tb.Fatal(err)
	}
	names := make([]string, len(chain))
	for i, img := range chain {
		names[i] = img.ObjectName()
		data, err := remote.ReadObject(names[i], nil)
		if err != nil {
			tb.Fatal(err)
		}
		if err := storage.Write(r, names[i], bytes.Clone(data), storage.WriteOptions{Atomic: true}); err != nil {
			tb.Fatal(err)
		}
	}
	return r, up, disks, names
}

// shardHashes returns the SHA-256 of every member's stored shard of
// every name, and the shards themselves.
func shardHashes(t *testing.T, disks []*storage.Local, names []string) ([][sha256.Size]byte, [][]byte) {
	t.Helper()
	var sums [][sha256.Size]byte
	var shards [][]byte
	for _, d := range disks {
		for _, name := range names {
			b, err := d.ReadObject(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			sums = append(sums, sha256.Sum256(b))
			shards = append(shards, b)
		}
	}
	return sums, shards
}

// TestErasureRestoreLeavesShardsIntact restores a chain from a 2+1
// erasure set eagerly and lazily, healthy and with member 0 down. The
// restored pages borrow the shards' own payloads. Writing every page
// afterwards must leave every member's stored shard byte-identical, and
// the memory must match a restore from the original store.
func TestErasureRestoreLeavesShardsIntact(t *testing.T) {
	r, up, disks, names := replicatedChain(t, 3)
	before, shards := shardHashes(t, disks, names)
	prog := workload.Sparse{MiB: 2, WriteFrac: 0.15, Seed: 42}
	var want uint64
	for _, lazy := range []bool{false, true} {
		for _, down := range []bool{false, true} {
			name := fmt.Sprintf("lazy=%v member0down=%v", lazy, down)
			up[0] = !down
			k := newMachine("dst", prog)
			var as *mem.AddressSpace
			if lazy {
				leaf, err := r.ReadObject(names[len(names)-1], nil)
				if err != nil {
					t.Fatal(err)
				}
				img, err := Decode(leaf)
				if err != nil {
					t.Fatal(err)
				}
				p, sess, err := LazyRestore(k, img, LazyOptions{
					RestoreOptions: RestoreOptions{Parallelism: 2},
					Source:         r,
					Ancestors:      names[:len(names)-1],
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := sess.DrainAll(); err != nil {
					t.Fatal(err)
				}
				sess.Close()
				as = p.AS
			} else {
				chain, err := LoadChainManifest(r, nil, names)
				if err != nil {
					t.Fatal(err)
				}
				p, err := Restore(k, chain, RestoreOptions{Parallelism: 2})
				if err != nil {
					t.Fatal(err)
				}
				as = p.AS
			}
			up[0] = true
			if want == 0 {
				want = as.Checksum()
			} else if as.Checksum() != want {
				t.Fatalf("%s: restored memory differs from the first restore's", name)
			}
			if borrowedPages(as, shards) == 0 {
				t.Fatalf("%s: no restored page borrows a stored shard", name)
			}
			writeEveryPage(t, as, 0x3C, false)
			after, _ := shardHashes(t, disks, names)
			if !reflect.DeepEqual(after, before) {
				t.Fatalf("%s: a stored shard changed after writes to the restored process", name)
			}
		}
	}
	remote, leaf := buildTestChain(t)
	if eagerChecksum(t, remote, leaf, 1) != want {
		t.Fatal("the erasure restores differ from a restore from the original store")
	}
}

// BenchmarkLoadChainReplicated loads the 17-image chain from a 2+1
// erasure set by manifest: healthy (every image decoded from its data
// planes in place) and with member 0 down (each image's first plane
// solved from parity).
func BenchmarkLoadChainReplicated(b *testing.B) {
	r, up, _, names := replicatedChain(b, 17)
	for _, down := range []bool{false, true} {
		name := "healthy"
		if down {
			name = "degraded"
		}
		b.Run(name, func(b *testing.B) {
			up[0] = !down
			defer func() { up[0] = true }()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := LoadChainManifest(r, nil, names); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
