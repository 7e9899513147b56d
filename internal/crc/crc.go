// Package crc computes the two checksums checkpoint data carries: the
// CRC-64 that seals checkpoint images (the ECMA polynomial, reflected,
// bit for bit crc64.Update / crc64.Checksum on the ECMA table) and the
// CRC-32 that seals each erasure shard (IEEE, bit for bit
// crc32.Update / crc32.ChecksumIEEE).
//
// Where the CPU has a carry-less multiply (PCLMULQDQ on amd64), long
// inputs are folded instead of run through a table: a CRC is linear over
// GF(2), so any 16-byte block may be replaced by two 64x64-bit products
// with x^k mod P that leave the remainder mod P unchanged. The fold
// ends with 16 bytes whose CRC from a zero register equals the input's;
// those bytes and the tail under 16 bytes then go through the table.
//
// The fold never looks at the CRC's width: a 16-byte lane stays
// congruent mod P for any reflected P of degree 64 or less, so one
// kernel serves both polynomials with their own multipliers. There are
// two kernels. The XMM one folds four 16-byte lanes, 64 bytes per
// iteration; the ZMM one, on AVX-512F with VPCLMULQDQ, folds four
// 64-byte registers of four lanes each, 256 bytes per iteration. Which
// runs depends on the CPU flags and the input length alone:
//
//   - CRC-64 takes the ZMM fold from 256 bytes, else the XMM fold from
//     64 bytes, else the table.
//   - CRC-32 takes the ZMM fold from 2 KiB, else hash/crc32 itself:
//     its own PCLMULQDQ fold and slicing-table finish beat this
//     package's XMM fold at every length, and the ZMM fold below 2 KiB.
package crc

import (
	"hash/crc32"
	"hash/crc64"
	"math"
)

var table = crc64.MakeTable(crc64.ECMA)

// foldKeys holds one polynomial's fold multipliers in the 64-bit
// reflected domain, where bit 63 holds x^0: x^2111 and x^2047 mod P fold
// a 16-byte lane's low and high halves 256 bytes forward, x^575 and
// x^511 fold them 64 bytes forward, x^191 and x^127 16 bytes forward.
// Each exponent is the fold distance in bits plus 63 or minus 1: the 64
// bits the low half sits ahead of the high half, less the one bit a
// reflected carry-less product is shifted by.
type foldKeys [6]uint64

// foldExps are the exponents foldKeys documents, in its order.
var foldExps = [6]int{2111, 2047, 575, 511, 191, 127}

// poly is one reflected CRC's fold: its multipliers and the shortest
// inputs each kernel takes.
type poly struct {
	keys              foldKeys
	wideMin, clmulMin int
}

// never is a minimum length no input reaches.
const never = math.MaxInt

var crc64ECMA = &poly{
	keys: func() (k foldKeys) {
		for i, e := range foldExps {
			k[i] = xPowModP(e, uint64(crc64.ECMA))
		}
		return k
	}(),
	wideMin:  256,
	clmulMin: 64,
}

// ieee's multipliers are 32-bit residues placed in the top half of the
// 64-bit register, where x^0..x^31 sit.
var ieee = &poly{
	keys: func() (k foldKeys) {
		for i, e := range foldExps {
			k[i] = uint64(xPowModP(e, uint32(crc32.IEEE))) << 32
		}
		return k
	}(),
	wideMin:  2 << 10,
	clmulMin: never,
}

// fold runs the kernel the CPU flags and len(p) choose over p's whole
// 16-byte blocks, from the raw (uninverted) register state, which the
// kernels XOR into the first 8 bytes; a CRC-32 register has its upper
// 32 bits zero, so only the first 4 change. ok is false when p takes
// the table path instead.
func (c *poly) fold(state uint64, p []byte) (lo, hi uint64, ok bool) {
	switch {
	case useWide && len(p) >= c.wideMin:
		lo, hi = foldWide(state, p[:len(p)&^15], &c.keys)
	case useCLMUL && len(p) >= c.clmulMin:
		lo, hi = foldCLMUL(state, p[:len(p)&^15], &c.keys)
	default:
		return 0, 0, false
	}
	return lo, hi, true
}

// finish16 returns the raw CRC, from a zero register, of the 16 bytes a
// fold ends with, through the byte table tab. It takes the two halves
// in registers, not as a slice, so that nothing escapes to the heap.
func finish16[T uint32 | uint64](tab *[256]T, lo, hi uint64) T {
	var crc T
	for _, w := range [2]uint64{lo, hi} {
		for i := 0; i < 64; i += 8 {
			crc = tab[byte(crc)^byte(w>>i)] ^ crc>>8
		}
	}
	return crc
}

// Update returns the CRC-64 of p appended to data whose CRC-64 is crc.
func Update(crc uint64, p []byte) uint64 {
	lo, hi, ok := crc64ECMA.fold(^crc, p)
	if !ok {
		return updateGeneric(crc, p)
	}
	return updateGeneric(^finish16((*[256]uint64)(table), lo, hi), p[len(p)&^15:])
}

// Checksum returns the CRC-64 of p.
func Checksum(p []byte) uint64 { return Update(0, p) }

// UpdateIEEE returns the CRC-32 of p appended to data whose CRC-32 is
// crc.
func UpdateIEEE(crc uint32, p []byte) uint32 {
	lo, hi, ok := ieee.fold(uint64(^crc), p)
	if !ok {
		return crc32.Update(crc, crc32.IEEETable, p)
	}
	return crc32.Update(^finish16((*[256]uint32)(crc32.IEEETable), lo, hi), crc32.IEEETable, p[len(p)&^15:])
}

// ChecksumIEEE returns the CRC-32 of p.
func ChecksumIEEE(p []byte) uint32 { return UpdateIEEE(0, p) }

// updateGeneric is the CRC-64 table path every CPU can run.
func updateGeneric(crc uint64, p []byte) uint64 { return crc64.Update(crc, table, p) }
