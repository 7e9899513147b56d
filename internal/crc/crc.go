// Package crc computes the CRC-64 that seals checkpoint images: the ECMA
// polynomial, reflected, with Go's hash/crc64 conventions, so every
// value is bit-for-bit crc64.Update / crc64.Checksum on the ECMA table.
//
// Where the CPU has a carry-less multiply (PCLMULQDQ on amd64), inputs
// of 64 bytes or more are folded 64 bytes per iteration instead of run
// through the slicing-by-8 table: a CRC is linear over GF(2), so any
// 16-byte block may be replaced by two 64x64-bit products with
// x^k mod P that leave the remainder mod P unchanged. The fold ends with
// 16 bytes whose CRC from a zero register equals the input's; those
// bytes and the tail under 16 bytes then go through the table. Every
// other CPU and input takes hash/crc64 directly.
package crc

import (
	"encoding/binary"
	"hash/crc64"
)

var table = crc64.MakeTable(crc64.ECMA)

// foldK holds the fold multipliers in the reflected domain: x^575 and
// x^511 mod P fold a 16-byte lane's low and high halves 64 bytes
// forward, x^191 and x^127 fold them 16 bytes forward. Each exponent is
// the fold distance in bits plus 63 or minus 1: the 64 bits the low half
// sits ahead of the high half, less the one bit a reflected carry-less
// product is shifted by.
var foldK = [4]uint64{xPowModP(575), xPowModP(511), xPowModP(191), xPowModP(127)}

// Update returns the CRC of p appended to data whose CRC is crc.
func Update(crc uint64, p []byte) uint64 {
	if !useCLMUL || len(p) < 64 {
		return updateGeneric(crc, p)
	}
	n := len(p) &^ 15
	lo, hi := foldCLMUL(^crc, p[:n], &foldK)
	var r [16]byte
	binary.LittleEndian.PutUint64(r[:8], lo)
	binary.LittleEndian.PutUint64(r[8:], hi)
	// An initial value of ^0 is a zero register under hash/crc64's
	// pre-inversion.
	return updateGeneric(updateGeneric(^uint64(0), r[:]), p[n:])
}

// Checksum returns the CRC of p.
func Checksum(p []byte) uint64 { return Update(0, p) }

// updateGeneric is the table path every CPU can run.
func updateGeneric(crc uint64, p []byte) uint64 { return crc64.Update(crc, table, p) }
