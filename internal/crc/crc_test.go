package crc

import (
	"hash/crc64"
	"math/rand"
	"testing"
)

// TestUpdateMatchesStdlib checks Update, and the table path on its own,
// against hash/crc64 for every length up to 1100 at every slice offset
// mod 16, so the kernel's 16-byte loads run unaligned and every split of
// a length into 64-byte, 16-byte and tail work is covered.
func TestUpdateMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 1100+16)
	rng.Read(buf)
	impls := []struct {
		name   string
		update func(uint64, []byte) uint64
	}{{"Update", Update}, {"updateGeneric", updateGeneric}}
	for _, impl := range impls {
		for off := 0; off < 16; off++ {
			for n := 0; n <= 1100; n++ {
				p := buf[off : off+n]
				init := rng.Uint64()
				if got, want := impl.update(init, p), crc64.Update(init, table, p); got != want {
					t.Fatalf("%s(%#x, len %d at offset %d) = %#x, want %#x", impl.name, init, n, off, got, want)
				}
			}
		}
	}
}

func TestChecksumLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{80 << 10, 1 << 20, 4<<20 + 5} {
		p := make([]byte, n)
		rng.Read(p)
		if got, want := Checksum(p), crc64.Checksum(p, table); got != want {
			t.Fatalf("Checksum(len %d) = %#x, want %#x", n, got, want)
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

// BenchmarkCRC64 checksums one 4 KiB page extent, the size of each
// write the delta encoder makes, and a 4 MiB image body.
func BenchmarkCRC64(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"4KiB", 4 << 10}, {"4MiB", 4 << 20}} {
		n := c.n
		p := make([]byte, n)
		rand.New(rand.NewSource(4)).Read(p)
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = Checksum(p)
			}
		})
	}
}

var sink uint64
