package crc

import "repro/internal/cpu"

var (
	// useCLMUL reports whether the CPU has PCLMULQDQ.
	useCLMUL = cpu.HasPCLMULQDQ
	// useWide reports whether the CPU has AVX-512F and VPCLMULQDQ, and
	// the OS saves ZMM state.
	useWide = cpu.HasAVX512VPCLMULQDQ
)

// foldCLMUL XORs state into the first 8 bytes of p and folds p down to
// 16 bytes whose raw CRC from a zero register equals the raw CRC of p
// from state, in XMM registers. len(p) must be a multiple of 16 and at
// least 64; k holds the multipliers foldKeys documents.
//
//go:noescape
func foldCLMUL(state uint64, p []byte, k *foldKeys) (lo, hi uint64)

// foldWide is foldCLMUL in ZMM registers, 256 bytes per iteration.
// len(p) must be a multiple of 16 and at least 256.
//
//go:noescape
func foldWide(state uint64, p []byte, k *foldKeys) (lo, hi uint64)
