// Package erasure implements a small Reed–Solomon erasure codec over
// GF(256) for checkpoint shard placement: an object is split into k data
// shards plus m parity shards such that any k of the k+m shards
// reconstruct the original bytes. This is the k-of-n alternative to full
// buddy mirroring — the same single-node-loss tolerance at a fraction of
// the write amplification (n/k instead of the mirror's replica count),
// at the price of a matrix solve on degraded reads.
//
// The codec is Go apart from one kernel: on amd64 CPUs whose CPUID
// reports SSSE3 the GF(256) multiply-accumulate looks up 16 bytes per
// PSHUFB in assembly (gf256_amd64.s); every other CPU and GOARCH, and
// the tail under 16 bytes, look each byte up in a product table in Go.
// Both paths return the same bytes. A buffer whose every byte is copied
// in (a full data shard, a decode that needed no solve) is allocated
// without a zero fill; parity shards and solved decodes accumulate
// products into their buffer, so it starts zeroed.
package erasure

import (
	"crypto/subtle"
	"encoding/binary"
)

// GF(256) arithmetic under the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11d, the classic Reed–Solomon field). Scalar multiplication (gmul,
// used to build and invert the small coding matrices) goes through
// log/antilog tables; the antilog table is doubled so gmul never reduces
// mod 255. Bulk payload work goes through one kernel, mulAdd. Its Go
// path reads a 64 KiB product table: mulTable[c][x] = c·x, so
// multiplying a byte is a single lookup into c's 256-byte row. Its
// PSHUFB path reads the split-nibble tables: since multiplication by c
// is linear over GF(2), c·x = c·(x&15) ^ c·(x&0xf0), and nibTable[c]
// holds c·i in bytes 0..15 and c·(i<<4) in bytes 16..31, two 16-entry
// tables a PSHUFB indexes with a byte's low and high nibble. All tables
// are built once at init from gmul.

var (
	expTable [512]byte
	logTable [256]byte
	mulTable [256][256]byte
	nibTable [256][32]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x >= 256 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
	for c := 1; c < 256; c++ {
		for x := 1; x < 256; x++ {
			mulTable[c][x] = gmul(byte(c), byte(x))
		}
		for i := 0; i < 16; i++ {
			nibTable[c][i] = gmul(byte(c), byte(i))
			nibTable[c][16+i] = gmul(byte(c), byte(i<<4))
		}
	}
}

func gmul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// ginv returns the multiplicative inverse; a must be nonzero.
func ginv(a byte) byte {
	if a == 0 {
		panic("erasure: inverse of zero in GF(256)")
	}
	return expTable[255-int(logTable[a])]
}

// gpow returns base^exp in the field.
func gpow(base byte, exp int) byte {
	if exp == 0 {
		return 1
	}
	if base == 0 {
		return 0
	}
	return expTable[(int(logTable[base])*exp)%255]
}

// mulAdd sets dst[i] ^= c·src[i] for every i < len(src); dst must be at
// least as long as src. Coefficient 0 is a no-op and coefficient 1 is a
// plain XOR done a machine word (or vector) at a time. Any other
// coefficient runs the longest prefix whose length is a multiple of 16
// through the PSHUFB kernel where the CPU has SSSE3, and the rest
// through mulAddTable.
func mulAdd(dst, src []byte, c byte) {
	switch c {
	case 0:
		return
	case 1:
		subtle.XORBytes(dst, dst[:len(src)], src)
		return
	}
	if n := len(src) &^ 15; useSSSE3 && n > 0 {
		mulAddSSSE3(dst[:n], src[:n], &nibTable[c])
		dst, src = dst[n:], src[n:]
	}
	mulAddTable(dst, src, c)
}

// mulAddTable is mulAdd for any coefficient on any CPU: one row lookup
// per byte, with eight products packed into a word so dst is read and
// written eight bytes at a time.
func mulAddTable(dst, src []byte, c byte) {
	row := &mulTable[c]
	for len(src) >= 8 && len(dst) >= 8 {
		s := src[:8:8]
		p := uint64(row[s[0]]) | uint64(row[s[1]])<<8 |
			uint64(row[s[2]])<<16 | uint64(row[s[3]])<<24 |
			uint64(row[s[4]])<<32 | uint64(row[s[5]])<<40 |
			uint64(row[s[6]])<<48 | uint64(row[s[7]])<<56
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^p)
		src, dst = src[8:], dst[8:]
	}
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] ^= row[x]
	}
}
