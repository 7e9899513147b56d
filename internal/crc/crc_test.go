package crc

import (
	"hash/crc32"
	"hash/crc64"
	"math/rand"
	"testing"
)

func TestChecksumLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{80 << 10, 1 << 20, 4<<20 + 5} {
		p := make([]byte, n)
		rng.Read(p)
		if got, want := Checksum(p), crc64.Checksum(p, table); got != want {
			t.Fatalf("Checksum(len %d) = %#x, want %#x", n, got, want)
		}
		if got, want := ChecksumIEEE(p), crc32.ChecksumIEEE(p); got != want {
			t.Fatalf("ChecksumIEEE(len %d) = %#x, want %#x", n, got, want)
		}
	}
}

// stdlib pairs each polynomial's exported update with its reference,
// hash/crc64 or hash/crc32.
var stdlib = []struct {
	name     string
	c        *poly
	got, ref func(crc uint64, p []byte) uint64
	mask     uint64
}{
	{"CRC-64", crc64ECMA, Update, func(crc uint64, p []byte) uint64 { return crc64.Update(crc, table, p) }, ^uint64(0)},
	{"CRC-32", ieee, func(crc uint64, p []byte) uint64 {
		return uint64(UpdateIEEE(uint32(crc), p))
	}, func(crc uint64, p []byte) uint64 {
		return uint64(crc32.Update(uint32(crc), crc32.IEEETable, p))
	}, 0xffffffff},
}

// forcePath makes c.fold take one path from the shortest input that
// path accepts (256 bytes for the ZMM fold, 64 for the XMM fold) and
// the table below that, until the returned restore runs; "dispatch"
// keeps the package's own minimums. ok is false when the CPU lacks the
// path's kernel.
func forcePath(c *poly, path string) (restore func(), ok bool) {
	wideMin, clmulMin := c.wideMin, c.clmulMin
	restore = func() { c.wideMin, c.clmulMin = wideMin, clmulMin }
	switch path {
	case "dispatch":
		ok = true
	case "wide":
		c.wideMin, c.clmulMin, ok = 256, never, useWide
	case "clmul":
		c.wideMin, c.clmulMin, ok = never, 64, useCLMUL
	default:
		c.wideMin, c.clmulMin, ok = never, never, true
	}
	return restore, ok
}

// TestUpdateMatchesStdlib runs each polynomial down its own dispatch
// and then down each path alone, the ZMM fold, the XMM fold and the
// table, against its hash/ reference at every length up to 2100 at
// every slice offset mod 16 (so the kernels' loads run unaligned and
// every split of a length into 256-, 64-, 16-byte and tail work is
// covered), and at 80 KiB, 1 MiB and 4 MiB+5. A path the CPU lacks is
// skipped and logged, so a pass on such a CPU covers less.
func TestUpdateMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 4<<20+5+16)
	rng.Read(buf)
	for _, s := range stdlib {
		for _, path := range []string{"dispatch", "wide", "clmul", "table"} {
			restore, ok := forcePath(s.c, path)
			if !ok {
				restore()
				t.Logf("%s %s: skipped, no such kernel on this CPU or GOARCH", s.name, path)
				continue
			}
			check := func(n, off int) {
				p := buf[off : off+n]
				init := rng.Uint64() & s.mask
				if got, want := s.got(init, p), s.ref(init, p); got != want {
					restore()
					t.Fatalf("%s %s (%#x, len %d at offset %d) = %#x, want %#x", s.name, path, init, n, off, got, want)
				}
			}
			for off := 0; off < 16; off++ {
				for n := 0; n <= 2100; n++ {
					check(n, off)
				}
			}
			for _, n := range []int{80 << 10, 1 << 20, 4<<20 + 5} {
				check(n, 3)
			}
			restore()
			t.Logf("%s %s: exercised", s.name, path)
		}
	}
}

// TestUpdateAllocates0: neither checksum allocates, on any path.
func TestUpdateAllocates0(t *testing.T) {
	p := make([]byte, 64<<10)
	for _, n := range []int{15, 100, 1000, 4096, 64 << 10} {
		if a := testing.AllocsPerRun(20, func() { sink = Update(1, p[:n]) }); a != 0 {
			t.Errorf("Update(len %d) allocates %v times", n, a)
		}
		if a := testing.AllocsPerRun(20, func() { sink = uint64(UpdateIEEE(1, p[:n])) }); a != 0 {
			t.Errorf("UpdateIEEE(len %d) allocates %v times", n, a)
		}
	}
}

func FuzzCRC64(f *testing.F) {
	f.Add(uint64(0), []byte(nil))
	f.Add(^uint64(0), make([]byte, 64))
	f.Add(uint64(0x0123456789abcdef), []byte("checkpoint image body, long enough to take the folding kernel path"))
	f.Fuzz(func(t *testing.T, init uint64, p []byte) {
		if got, want := Update(init, p), crc64.Update(init, table, p); got != want {
			t.Fatalf("Update(%#x, len %d) = %#x, want %#x", init, len(p), got, want)
		}
	})
}

func FuzzCRC32(f *testing.F) {
	f.Add(uint32(0), []byte(nil))
	f.Add(^uint32(0), make([]byte, 2048))
	f.Add(uint32(0x01234567), make([]byte, 4100))
	f.Fuzz(func(t *testing.T, init uint32, p []byte) {
		if got, want := UpdateIEEE(init, p), crc32.Update(init, crc32.IEEETable, p); got != want {
			t.Fatalf("UpdateIEEE(%#x, len %d) = %#x, want %#x", init, len(p), got, want)
		}
	})
}

// benchSizes span a shard header's neighbourhood to a 4 MiB image
// body: 64 B, 1 KiB, one 4 KiB page extent (the size of each write the
// delta encoder makes), 64 KiB and 4 MiB.
var benchSizes = []struct {
	name string
	n    int
}{{"64B", 64}, {"1KiB", 1 << 10}, {"4KiB", 4 << 10}, {"64KiB", 64 << 10}, {"4MiB", 4 << 20}}

func benchSum(b *testing.B, sum func(p []byte) uint64) {
	for _, c := range benchSizes {
		n := c.n
		p := make([]byte, n)
		rand.New(rand.NewSource(4)).Read(p)
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = sum(p)
			}
		})
	}
}

// BenchmarkCRC64 checksums each of benchSizes.
func BenchmarkCRC64(b *testing.B) { benchSum(b, Checksum) }

// BenchmarkCRC32IEEE checksums each of benchSizes, and hash/crc32 does
// the same as the reference.
func BenchmarkCRC32IEEE(b *testing.B) {
	b.Run("crc", func(b *testing.B) {
		benchSum(b, func(p []byte) uint64 { return uint64(ChecksumIEEE(p)) })
	})
	b.Run("hash-crc32", func(b *testing.B) {
		benchSum(b, func(p []byte) uint64 { return uint64(crc32.ChecksumIEEE(p)) })
	})
}

var sink uint64
