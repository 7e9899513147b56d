package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// kernelPaths are the GF(256) payload paths, fastest first, as
// forcePath names them.
var kernelPaths = []string{"dispatch", "gfni", "pshufb", "table"}

// forcePath makes mulSum, mulSet and mulAdd take one path until the
// returned restore runs: "gfni" is the AVX-512 affine kernel with the
// Go table for its tails, "pshufb" the SSSE3 kernels (mulSum's first
// source set, the rest accumulated) with the same tails, "table" the Go
// table alone; "dispatch" keeps what the CPU has. ok is false when the
// CPU or GOARCH lacks the path's kernel.
func forcePath(path string) (restore func(), ok bool) {
	gfni, ssse3 := useGFNI, useSSSE3
	restore = func() { useGFNI, useSSSE3 = gfni, ssse3 }
	switch path {
	case "dispatch":
		ok = true
	case "gfni":
		useGFNI, useSSSE3, ok = gfni, false, gfni
	case "pshufb":
		useGFNI, useSSSE3, ok = false, ssse3, ssse3
	default:
		useGFNI, useSSSE3, ok = false, false, true
	}
	return restore, ok
}

// gmulRows returns the reference product table the kernel checks
// read: gmulRows()[c][x] = gmul(c, x). It is built on first use, after
// the package's init has built gmul's tables.
var gmulRows = sync.OnceValue(func() *[256][256]byte {
	t := new([256][256]byte)
	for c := range t {
		for x := range t[c] {
			t[c][x] = gmul(byte(c), byte(x))
		}
	}
	return t
})

// checkMulAdd runs fn(dst[at:], src, c), fn being mulSet (add false) or
// mulAdd (add true), and fails unless every byte of dst at i in [at,
// at+len(src)) became gmul(c, src[i-at]), XORed into its old value when
// add is set, and every other byte of dst, before at or past len(src),
// kept its value.
func checkMulAdd(t testing.TB, name string, add bool, dst []byte, at int, src []byte, c byte) {
	t.Helper()
	want := bytes.Clone(dst)
	out := want[at : at+len(src)]
	if !add {
		clear(out)
	}
	row := &gmulRows()[c]
	for j, x := range src {
		out[j] ^= row[x]
	}
	if add {
		mulAdd(dst[at:], src, c)
	} else {
		mulSet(dst[at:], src, c)
	}
	if i := firstDiff(dst, want); i >= 0 {
		t.Fatalf("%s add=%v c=%#x len=%d at=%d: byte %d = %#x, want %#x", name, add, c, len(src), at, i, dst[i], want[i])
	}
}

// checkMulSum runs mulSum(dst[at:at+n], srcs, coefs) and fails unless
// every byte of dst at i in [at, at+n) became Σⱼ gmul(coefs[j],
// srcs[j][i-at]), whatever it held before, and every byte outside that
// window kept its value.
func checkMulSum(t testing.TB, name string, dst []byte, at, n int, srcs [][]byte, coefs []byte) {
	t.Helper()
	want := bytes.Clone(dst)
	out := want[at : at+n]
	clear(out)
	for s, src := range srcs {
		row := &gmulRows()[coefs[s]]
		for j := range out {
			out[j] ^= row[src[j]]
		}
	}
	mulSum(dst[at:at+n], srcs, coefs)
	if i := firstDiff(dst, want); i >= 0 {
		t.Fatalf("%s %d sources %#x len=%d at=%d: byte %d = %#x, want %#x", name, len(srcs), coefs, n, at, i, dst[i], want[i])
	}
}

// firstDiff returns the first index where a and b (of equal length)
// differ, or -1.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestMulAddMatchesGmul checks every payload path, forced one at a time
// (the GFNI, PSHUFB and table kernels, and the CPU's own dispatch),
// against the log/antilog multiply: mulSet and mulAdd at every (c, x)
// product, then at every length 0..1100 and 4 KiB+5 at every source
// offset 0..15, for the zero (c=0), copy or XOR (c=1) and multiply
// paths; and mulSum at 1 to 5 sources over the same lengths and
// offsets, each source at its own alignment and the coefficients mixing
// 0, 1 and general ones. Every dst is longer than the output and holds
// random bytes, which mulSum must overwrite and no call may change
// past its output. A path the CPU lacks is skipped and logged, so a
// pass on such a CPU covers less.
func TestMulAddMatchesGmul(t *testing.T) {
	all := make([]byte, 256)
	for x := range all {
		all[x] = byte(x)
	}
	rng := rand.New(rand.NewSource(5))
	lengths := []int{4<<10 + 5}
	for n := 0; n <= 1100; n++ {
		lengths = append(lengths, n)
	}
	const maxSrcs = 5
	bufs := make([][]byte, maxSrcs)
	for j := range bufs {
		bufs[j] = make([]byte, 4<<10+5+15+7*j)
		rng.Read(bufs[j])
	}
	dst := make([]byte, len(bufs[0])+40)
	noise := make([]byte, 2*len(dst)) // dst's prior contents, a window per check
	rng.Read(noise)
	fill := func(n int) []byte {
		return dst[:copy(dst[:n], noise[rng.Intn(len(dst)):])]
	}
	srcs := make([][]byte, maxSrcs)
	coefs := make([]byte, maxSrcs)
	mix := []byte{0x8e, 1, 0, 0xff, 2, 3, 0x1d}
	for _, path := range kernelPaths {
		restore, ok := forcePath(path)
		if !ok {
			restore()
			t.Logf("%s: skipped, no such kernel on this CPU or GOARCH", path)
			continue
		}
		for _, add := range []bool{false, true} {
			for c := 0; c < 256; c++ {
				checkMulAdd(t, path, add, make([]byte, 256), 0, all, byte(c))
			}
			for _, c := range []byte{0, 1, 2, 3, 0x8e, 0xff} {
				for _, n := range lengths {
					for off := 0; off < 16; off++ {
						checkMulAdd(t, path, add, fill(n+off+8), off+3, bufs[0][off:off+n], c)
					}
				}
			}
		}
		for ns := 1; ns <= maxSrcs; ns++ {
			for _, n := range lengths {
				for off := 0; off < 16; off++ {
					for j := 0; j < ns; j++ {
						o := (off + 5*j) % 16
						srcs[j] = bufs[j][o : o+n+7*j] // longer than dst past the first
						coefs[j] = mix[(n+off+j)%len(mix)]
					}
					checkMulSum(t, path, fill(n+off+8), off+3, n, srcs[:ns], coefs[:ns])
				}
			}
		}
		restore()
		t.Logf("%s: exercised", path)
	}
}

// FuzzMulAdd checks every path against gmul on arbitrary (c, dst, src):
// mulSet and mulAdd with src clipped to dst's length, and mulSum over 1
// to 5 sources, each a rotation of src, with coefficients stepped from
// c, into dst clipped to src's length. No byte of dst past the output
// may change.
func FuzzMulAdd(f *testing.F) {
	f.Add(byte(0x8e), make([]byte, 40), bytes.Repeat([]byte{0xa5, 3}, 19))
	f.Add(byte(1), []byte{1, 2, 3}, []byte{4})
	f.Add(byte(0), []byte{}, []byte{})
	f.Add(byte(0x1d), make([]byte, 300), bytes.Repeat([]byte{0x5a, 0xc3, 9}, 100))
	f.Fuzz(func(t *testing.T, c byte, dst, src []byte) {
		ns := 1 + int(c)%5
		srcs := make([][]byte, ns)
		coefs := make([]byte, ns)
		for j := range srcs {
			r := 0
			if len(src) > 0 {
				r = 7 * j % len(src)
			}
			srcs[j] = append(bytes.Clone(src[r:]), src[:r]...)
			coefs[j] = c + byte(37*j)
		}
		n := min(len(src), len(dst))
		for _, path := range kernelPaths {
			restore, ok := forcePath(path)
			if ok {
				for _, add := range []bool{false, true} {
					checkMulAdd(t, path, add, bytes.Clone(dst), 0, src[:n], c)
				}
				checkMulSum(t, path, bytes.Clone(dst), 0, n, srcs, coefs)
			}
			restore()
		}
	})
}

// TestMulAddAllocates0 is the kernels' allocation ceiling: multiplying
// a 4 KiB + 5 plane at any coefficient, or summing 1 to 5 such planes,
// allocates nothing on any path.
func TestMulAddAllocates0(t *testing.T) {
	src := make([]byte, 4<<10+5)
	dst := make([]byte, len(src))
	srcs := [][]byte{src, src, src, src, src}
	coefs := []byte{0x8e, 0, 1, 0xff, 2}
	for _, path := range kernelPaths {
		restore, ok := forcePath(path)
		if !ok {
			restore()
			continue
		}
		for _, c := range []byte{0, 1, 0x8e} {
			if n := testing.AllocsPerRun(100, func() { mulAdd(dst, src, c) }); n != 0 {
				t.Errorf("%s mulAdd c=%#x: %v allocs per run, want 0", path, c, n)
			}
			if n := testing.AllocsPerRun(100, func() { mulSet(dst, src, c) }); n != 0 {
				t.Errorf("%s mulSet c=%#x: %v allocs per run, want 0", path, c, n)
			}
		}
		for ns := 1; ns <= len(srcs); ns++ {
			if n := testing.AllocsPerRun(100, func() { mulSum(dst, srcs[:ns], coefs[:ns]) }); n != 0 {
				t.Errorf("%s mulSum %d sources: %v allocs per run, want 0", path, ns, n)
			}
		}
		restore()
	}
}

// bytesPerRun returns the heap bytes fn allocates per call, averaged
// over runs calls.
func bytesPerRun(runs int, fn func()) uint64 {
	fn() // warm up, as testing.AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// heapSize is the heap bytes one n-byte allocation takes: the runtime
// rounds an object over 32 KiB up to whole 8 KiB pages.
func heapSize(n int) uint64 {
	if n > 32<<10 {
		n = (n + 8<<10 - 1) &^ (8<<10 - 1)
	}
	return uint64(n)
}

// TestCodecAllocationCeilings bounds the codec's own allocations at the
// benchmark's 4 MiB 2+1 object: a degraded DecodePlanes allocates the
// one plane it solves plus at most 4 KiB of bookkeeping, and
// EncodeObject allocates its k+m blobs (each rounded to the heap's
// pages) plus at most 1 KiB.
func TestCodecAllocationCeilings(t *testing.T) {
	data := benchData()
	shards, err := EncodeObject(data, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plane := heapSize(len(shards[0]) - headerLen)
	degraded := append([][]byte{nil}, shards[1:]...)
	if got, ceil := bytesPerRun(20, func() {
		if _, solved, err := DecodePlanes(degraded); err != nil || !solved {
			t.Fatalf("degraded DecodePlanes: solved=%v err=%v", solved, err)
		}
	}), plane+4<<10; got > ceil {
		t.Errorf("degraded DecodePlanes allocates %d bytes per call, want at most %d (one %d-byte plane + 4 KiB)", got, ceil, plane)
	}
	var blobs uint64
	for _, b := range shards {
		blobs += heapSize(len(b))
	}
	if got, ceil := bytesPerRun(20, func() {
		if _, err := EncodeObject(data, 2, 1); err != nil {
			t.Fatal(err)
		}
	}), blobs+1<<10; got > ceil {
		t.Errorf("EncodeObject allocates %d bytes per call, want at most %d (%d bytes of blobs + 1 KiB)", got, ceil, blobs)
	}
}

// BenchmarkMulAdd runs mulAdd alone, on each path the CPU has, over a
// 4 KiB plane, a 256 KiB one (about a ckpt-stream delta's shard) and a
// 2 MiB one (a plane of the 4 MiB 2+1 object). mulAdd has no GFNI
// kernel, so it has no gfni case.
func BenchmarkMulAdd(b *testing.B) {
	for _, path := range []string{"pshufb", "table"} {
		for _, n := range []int{4 << 10, 256 << 10, 2 << 20} {
			b.Run(fmt.Sprintf("%s/%s", path, sizeName(n)), func(b *testing.B) {
				restore, ok := forcePath(path)
				defer restore()
				if !ok {
					b.Skip("no such kernel on this CPU or GOARCH")
				}
				src := make([]byte, n)
				rand.New(rand.NewSource(8)).Read(src)
				dst := make([]byte, n)
				b.SetBytes(int64(n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mulAdd(dst, src, 0x8e)
				}
			})
		}
	}
}

// BenchmarkMulSum runs the fused pass alone, on each path the CPU has,
// over 2 and 4 sources of a 256 KiB or a 2 MiB plane: two sources are a
// 2+1 degraded read's solve, four a 4+2 one's. SetBytes counts the
// bytes written.
func BenchmarkMulSum(b *testing.B) {
	for _, path := range []string{"gfni", "pshufb", "table"} {
		for _, ns := range []int{2, 4} {
			for _, n := range []int{256 << 10, 2 << 20} {
				b.Run(fmt.Sprintf("%s/%dsrc/%s", path, ns, sizeName(n)), func(b *testing.B) {
					restore, ok := forcePath(path)
					defer restore()
					if !ok {
						b.Skip("no such kernel on this CPU or GOARCH")
					}
					rng := rand.New(rand.NewSource(9))
					srcs := make([][]byte, ns)
					coefs := make([]byte, ns)
					for j := range srcs {
						srcs[j] = make([]byte, n)
						rng.Read(srcs[j])
						coefs[j] = byte(0x8e + 29*j)
					}
					dst := make([]byte, n)
					b.SetBytes(int64(n))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						mulSum(dst, srcs, coefs)
					}
				})
			}
		}
	}
}

func sizeName(n int) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dMiB", n>>20)
	}
	return fmt.Sprintf("%dKiB", n>>10)
}
