// Package erasure implements a small Reed–Solomon erasure codec over
// GF(256) for checkpoint shard placement: an object is split into k data
// shards plus m parity shards such that any k of the k+m shards
// reconstruct the original bytes. This is the k-of-n alternative to full
// buddy mirroring — the same single-node-loss tolerance at a fraction of
// the write amplification (n/k instead of the mirror's replica count),
// at the price of a matrix solve on degraded reads.
//
// The codec is Go apart from its GF(256) kernels. Every payload pass,
// a parity row of an encode and a solved plane of a decode, is one
// fused multiply-sum (mulSum): the output is written once from every
// source read once. On amd64 CPUs whose CPUID reports AVX-512F and
// GFNI, that pass runs in assembly (gf256_amd64.s), one VGF2P8AFFINEQB
// per 64 bytes of each source. Elsewhere it sets the output from the
// first source and accumulates the rest, 16 bytes per PSHUFB where the
// CPU has SSSE3 and one product-table lookup per byte in Go otherwise,
// which also takes every tail the vector kernels leave. All paths
// return the same bytes.
package erasure

import (
	"crypto/subtle"
	"encoding/binary"
)

// GF(256) arithmetic under the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11d, the classic Reed–Solomon field). Scalar multiplication (gmul,
// used to build and invert the small coding matrices) goes through
// log/antilog tables; the antilog table is doubled so gmul never reduces
// mod 255. Bulk payload work reads one of three tables, each built once
// at init from gmul. Since multiplication by c is linear over GF(2),
// it is an 8×8 bit matrix: affTable[c] holds it in the layout
// VGF2P8AFFINEQB reads, byte 7−i of the word being the mask of source
// bits that bit i of the product sums. nibTable serves PSHUFB: c·x =
// c·(x&15) ^ c·(x&0xf0), and nibTable[c] holds c·i in bytes 0..15 and
// c·(i<<4) in bytes 16..31, two 16-entry tables indexed by a byte's low
// and high nibble. The Go path reads the 64 KiB product table:
// mulTable[c][x] = c·x, so multiplying a byte is a single lookup into
// c's 256-byte row.

var (
	expTable [512]byte
	logTable [256]byte
	mulTable [256][256]byte
	nibTable [256][32]byte
	affTable [256]uint64
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
		for j := 0; j < 8; j++ {
			p := gmul(byte(c), 1<<j) // column j: the product of source bit j
			for i := 0; i < 8; i++ {
				affTable[c] |= uint64(p>>i&1) << (8*(7-i) + j)
			}
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

// mulSum sets dst[i] = Σⱼ coefs[j]·srcs[j][i] for every i < len(dst),
// reading each source once and writing dst once without reading it, so
// dst need not be zeroed. It needs at least one source, a coefficient
// for each, and every source at least as long as dst. Where the CPU has
// AVX-512F and GFNI, the longest prefix of dst whose length is a
// multiple of 64 is one mulSumGFNI pass; the rest, and all of dst on
// any other CPU, is set from the first source by mulSet and accumulated
// from the others by mulAdd.
func mulSum(dst []byte, srcs [][]byte, coefs []byte) {
	if len(srcs) == 0 || len(coefs) < len(srcs) {
		panic("erasure: mulSum needs a coefficient for each of at least one source")
	}
	for _, src := range srcs {
		if len(src) < len(dst) {
			panic("erasure: mulSum source shorter than dst")
		}
	}
	n := 0
	if useGFNI && len(dst) >= 64 {
		n = len(dst) &^ 63
		mulSumGFNI(dst[:n], srcs, coefs, &affTable)
	}
	mulSet(dst[n:], srcs[0][n:len(dst)], coefs[0])
	for j := 1; j < len(srcs); j++ {
		mulAdd(dst[n:], srcs[j][n:len(dst)], coefs[j])
	}
}

// mulSet sets dst[i] = c·src[i] for every i < len(src); dst must be at
// least as long as src. Coefficient 0 clears and coefficient 1 copies.
// Any other coefficient runs the longest prefix whose length is a
// multiple of 16 through the PSHUFB kernel where the CPU has SSSE3, and
// the rest through mulByTable.
func mulSet(dst, src []byte, c byte) {
	switch c {
	case 0:
		clear(dst[:len(src)])
		return
	case 1:
		copy(dst, src)
		return
	}
	if n := len(src) &^ 15; useSSSE3 && n > 0 {
		mulSetSSSE3(dst[:n], src[:n], &nibTable[c])
		dst, src = dst[n:], src[n:]
	}
	mulByTable(dst, src, c, false)
}

// mulAdd sets dst[i] ^= c·src[i] for every i < len(src); dst must be at
// least as long as src. Coefficient 0 is a no-op and coefficient 1 is a
// plain XOR done a machine word (or vector) at a time. Any other
// coefficient runs the longest prefix whose length is a multiple of 16
// through the PSHUFB kernel where the CPU has SSSE3, and the rest
// through mulByTable.
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
	mulByTable(dst, src, c, true)
}

// mulByTable is mulSet (add false) or mulAdd (add true) for any
// coefficient on any CPU: one row lookup per byte, with eight products
// packed into a word so dst is written (and, to accumulate, read) eight
// bytes at a time.
func mulByTable(dst, src []byte, c byte, add bool) {
	row := &mulTable[c]
	for len(src) >= 8 && len(dst) >= 8 {
		s := src[:8:8]
		p := uint64(row[s[0]]) | uint64(row[s[1]])<<8 |
			uint64(row[s[2]])<<16 | uint64(row[s[3]])<<24 |
			uint64(row[s[4]])<<32 | uint64(row[s[5]])<<40 |
			uint64(row[s[6]])<<48 | uint64(row[s[7]])<<56
		if add {
			p ^= binary.LittleEndian.Uint64(dst)
		}
		binary.LittleEndian.PutUint64(dst, p)
		src, dst = src[8:], dst[8:]
	}
	dst = dst[:len(src)]
	for i, x := range src {
		if add {
			dst[i] ^= row[x]
		} else {
			dst[i] = row[x]
		}
	}
}
