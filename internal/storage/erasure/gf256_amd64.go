package erasure

import "repro/internal/cpu"

// useSSSE3 reports whether mulAdd may run mulAddSSSE3.
var useSSSE3 = cpu.HasSSSE3

// mulAddSSSE3 sets dst[i] ^= c·src[i] for every i < len(src), where tbl
// is c's row of nibTable. len(src) must be a multiple of 16 and dst at
// least as long.
//
//go:noescape
func mulAddSSSE3(dst, src []byte, tbl *[32]byte)
