package checkpoint

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/costmodel"
	"repro/internal/simos/mem"
	"repro/internal/storage"
	"repro/internal/workload"
)

// A restore lends pages the image bytes they end with, and the first
// write copies them (mem.WritePages). These tests write restored pages
// and check that no write reaches an image, a stored object or another
// process restored from the same images.

// within reports whether d starts inside one of blobs.
func within(d []byte, blobs [][]byte) bool {
	if len(d) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(&d[0]))
	for _, b := range blobs {
		if len(b) > 0 {
			lo := uintptr(unsafe.Pointer(&b[0]))
			if p >= lo && p < lo+uintptr(len(b)) {
				return true
			}
		}
	}
	return false
}

// borrowedPages counts the resident pages of as whose frames lie inside
// blobs.
func borrowedPages(as *mem.AddressSpace, blobs [][]byte) int {
	n := 0
	for _, pi := range as.ResidentPages() {
		if within(pi.Page.Data(), blobs) {
			n++
		}
	}
	return n
}

// writeEveryPage overwrites every mapped page of as with fill: through
// the protection-checked store path where the page is writable, unless
// direct is set, and through WriteDirect otherwise.
func writeEveryPage(t *testing.T, as *mem.AddressSpace, fill byte, direct bool) {
	t.Helper()
	page := bytes.Repeat([]byte{fill}, mem.PageSize)
	for _, v := range as.VMAs() {
		for a := v.Start; a < v.End(); a += mem.PageSize {
			var err error
			if direct || !v.Prot.Can(mem.ProtWrite) {
				err = as.WriteDirect(a, page)
			} else {
				err = as.Write(a, page)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// storedBlobs reads each named object from tgt.
func storedBlobs(t *testing.T, tgt storage.Target, names []string) [][]byte {
	t.Helper()
	out := make([][]byte, len(names))
	for i, name := range names {
		data, err := tgt.ReadObject(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

// cloneAll deep-copies blobs.
func cloneAll(blobs [][]byte) [][]byte {
	out := make([][]byte, len(blobs))
	for i, b := range blobs {
		out[i] = bytes.Clone(b)
	}
	return out
}

// chainNames returns the object names of chain, oldest first.
func chainNames(chain []*Image) []string {
	names := make([]string, len(chain))
	for i, img := range chain {
		names[i] = img.ObjectName()
	}
	return names
}

// extentBytes copies every extent's bytes of chain, in chain order.
func extentBytes(chain []*Image) [][]byte {
	var out [][]byte
	for _, img := range chain {
		for _, v := range img.VMAs {
			for _, e := range v.Extents {
				out = append(out, bytes.Clone(e.Data))
			}
		}
	}
	return out
}

// TestRestoredWritesLeaveLocalStoreIntact: a chain read from a local
// disk decodes into images that alias the stored bytes. After a restore
// from it and a write to every page, every stored object reads back
// byte-identical and still decodes.
func TestRestoredWritesLeaveLocalStoreIntact(t *testing.T) {
	remote, leaf := buildTestChain(t)
	chain, err := LoadChain(remote, nil, leaf)
	if err != nil {
		t.Fatal(err)
	}
	names := chainNames(chain)
	disk := storage.NewLocal("disk", costmodel.Default2005(), func() bool { return true })
	for i, data := range storedBlobs(t, remote, names) {
		if err := storage.Write(disk, names[i], bytes.Clone(data), storage.WriteOptions{Atomic: true}); err != nil {
			t.Fatal(err)
		}
	}
	stored := storedBlobs(t, disk, names)
	want := cloneAll(stored)
	chain, err = LoadChain(disk, nil, leaf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Restore(newMachine("dst", workload.Sparse{MiB: 2, WriteFrac: 0.15, Seed: 42}), chain, RestoreOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if borrowedPages(p.AS, stored) == 0 {
		t.Fatal("no restored page borrows the stored bytes")
	}
	writeEveryPage(t, p.AS, 0xA5, false)
	for i, got := range storedBlobs(t, disk, names) {
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("stored object %s changed after writes to the restored process", names[i])
		}
		if _, err := Decode(got); err != nil {
			t.Fatalf("stored object %s no longer decodes: %v", names[i], err)
		}
	}
}

// TestRestoredTwinsStayIndependent: two processes restored from one
// decoded chain share its bytes; writing every page of one changes
// neither the other's memory nor the chain's extents.
func TestRestoredTwinsStayIndependent(t *testing.T) {
	remote, leaf := buildTestChain(t)
	chain, err := LoadChain(remote, nil, leaf)
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.Sparse{MiB: 2, WriteFrac: 0.15, Seed: 42}
	one, err := Restore(newMachine("one", prog), chain, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Restore(newMachine("two", prog), chain, RestoreOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	stored := storedBlobs(t, remote, chainNames(chain))
	if borrowedPages(one.AS, stored) == 0 || borrowedPages(two.AS, stored) == 0 {
		t.Fatal("the restored processes borrow no image bytes")
	}
	sum, extents := two.AS.Checksum(), extentBytes(chain)
	writeEveryPage(t, one.AS, 0x5A, true)
	if two.AS.Checksum() != sum {
		t.Fatal("writing one restored process changed its twin")
	}
	for i, e := range extentBytes(chain) {
		if !bytes.Equal(e, extents[i]) {
			t.Fatalf("extent %d of the chain changed after writes to a restored process", i)
		}
	}
}

// TestLazyServedPagesCopyOnWrite: the hot pages and every page a lazy
// session serves borrow image bytes; once written, they leave the
// stored images, the leaf's extents and an eager restore's memory as
// they were.
func TestLazyServedPagesCopyOnWrite(t *testing.T) {
	remote, leaf := buildTestChain(t)
	want := eagerChecksum(t, remote, leaf, 1)
	sess, p, chain := lazyFromChain(t, remote, leaf, 2, nil)
	defer sess.Close()
	names := chainNames(chain)
	stored := storedBlobs(t, remote, names)
	blobs, extents := cloneAll(stored), extentBytes(chain)
	if err := sess.DrainAll(); err != nil {
		t.Fatal(err)
	}
	if sess.Stats().Prefetched == 0 {
		t.Fatal("the session served no page")
	}
	if p.AS.Checksum() != want {
		t.Fatal("the drained lazy restore differs from the eager one")
	}
	if borrowedPages(p.AS, stored) == 0 {
		t.Fatal("no served page borrows image bytes")
	}
	writeEveryPage(t, p.AS, 0xC3, false)
	for i, got := range storedBlobs(t, remote, names) {
		if !bytes.Equal(got, blobs[i]) {
			t.Fatalf("stored object %s changed after writes to served pages", names[i])
		}
	}
	for i, e := range extentBytes(chain) {
		if !bytes.Equal(e, extents[i]) {
			t.Fatalf("extent %d of the chain changed after writes to served pages", i)
		}
	}
	if eagerChecksum(t, remote, leaf, 1) != want {
		t.Fatal("an eager restore after the writes differs from one before")
	}
}

// TestRestoreRetainsAtMostChainBytes bounds what borrowing keeps live: a
// restored process whose chain is otherwise dropped retains at most the
// chain's decoded bytes (the blobs its pages borrow from, or frames it
// copied) plus its page bookkeeping.
func TestRestoreRetainsAtMostChainBytes(t *testing.T) {
	remote, leaf := buildChain(t, 6)
	chain, err := LoadChain(remote, nil, leaf)
	if err != nil {
		t.Fatal(err)
	}
	stored := storedBlobs(t, remote, chainNames(chain))
	k := newMachine("dst", workload.Sparse{MiB: 2, WriteFrac: 0.15, Seed: 42})
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	// Fresh copies, so the chain's bytes are this restore's alone.
	blobs, decoded := cloneAll(stored), 0
	chain = make([]*Image, len(blobs))
	for i, b := range blobs {
		decoded += len(b)
		if chain[i], err = Decode(b); err != nil {
			t.Fatal(err)
		}
	}
	p, err := Restore(k, chain, RestoreOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	pages := len(p.AS.ResidentPages())
	chain, blobs = nil, nil
	retained := int64(heap()) - int64(before)
	// Everything live before the restore stays live through both reads.
	runtime.KeepAlive(p)
	runtime.KeepAlive(remote)
	runtime.KeepAlive(stored)
	// Each page's struct and map slot, and the process around them.
	bound := int64(decoded) + int64(pages)*256 + 64<<10
	t.Logf("%d pages retain %d bytes of a %d-byte chain", pages, retained, decoded)
	if retained > bound {
		t.Fatalf("the restored process retains %d bytes; its chain decodes to %d (bound %d)", retained, decoded, bound)
	}
}
