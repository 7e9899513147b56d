package crc

import "repro/internal/cpu"

// useCLMUL reports whether the CPU has PCLMULQDQ.
var useCLMUL = cpu.HasPCLMULQDQ

// foldCLMUL XORs state into the first 8 bytes of p and folds p down to
// 16 bytes whose raw CRC from a zero register equals the raw CRC of p
// from state. len(p) must be a multiple of 16 and at least 64; k holds
// the multipliers foldK documents.
//
//go:noescape
func foldCLMUL(state uint64, p []byte, k *[4]uint64) (lo, hi uint64)
