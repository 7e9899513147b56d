// CRC-64 combination, the piece of algebra that lets the parallel
// encoder shard an image across workers and still emit the exact trailer
// the sequential encoder would: each worker checksums only its own byte
// span, and the spans fold left-to-right with Combine instead of a
// second sequential pass over the whole payload.
//
// A CRC is linear over GF(2): CRC(A || B) = CRC(A)·x^(8·len(B)) ⊕ CRC(B)
// mod P, so it can be computed from CRC(A), CRC(B), and len(B) alone. The
// pre/post inversion Go's hash/crc64 applies (init ^0, xorout ^0) cancels
// out of the identity, so the fold works directly on Checksum-style
// values. This is zlib's crc32_combine (1.2.12 and later) lifted to 64
// bits: a table of x^(8·2^k) mod P turns the shift into one polynomial
// multiply per set bit of len(B).

package crc

import "hash/crc64"

// multmodp returns a·b mod P for the ECMA polynomial in the reflected
// domain, where bit 63 holds x^0.
func multmodp(a, b uint64) uint64 {
	var p uint64
	for m := uint64(1) << 63; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				break
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ crc64.ECMA
		} else {
			b >>= 1
		}
	}
	return p
}

// xPowModP returns x^n mod P in the reflected domain.
func xPowModP(n int) uint64 {
	p := uint64(1) << 63  // x^0
	sq := uint64(1) << 62 // x^1, squared to x^2, x^4, ... per bit of n
	for ; n != 0; n >>= 1 {
		if n&1 != 0 {
			p = multmodp(p, sq)
		}
		sq = multmodp(sq, sq)
	}
	return p
}

// x8Pow2Table[k] is x^(8·2^k) mod P: the operator that advances a CRC
// through 2^k zero bytes.
var x8Pow2Table = func() (t [64]uint64) {
	p := uint64(1) << (63 - 8) // x^8
	for k := range t {
		t[k] = p
		p = multmodp(p, p)
	}
	return t
}()

// Combine returns the CRC of the concatenation A||B given crc1 = CRC(A),
// crc2 = CRC(B), and len2 = len(B), all Checksum-style values.
func Combine(crc1, crc2 uint64, len2 int) uint64 {
	if len2 <= 0 {
		return crc1
	}
	shift := uint64(1) << 63 // x^0
	for k := 0; len2 != 0; k, len2 = k+1, len2>>1 {
		if len2&1 != 0 {
			shift = multmodp(x8Pow2Table[k], shift)
		}
	}
	return multmodp(shift, crc1) ^ crc2
}
