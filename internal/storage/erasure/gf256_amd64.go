package erasure

import "repro/internal/cpu"

// useGFNI reports whether mulSum may run mulSumGFNI, and useSSSE3
// whether mulSet and mulAdd may run their PSHUFB kernels. They are the
// CPU's features; the kernel tests clear them to force a slower path.
var (
	useGFNI  = cpu.HasAVX512GFNI
	useSSSE3 = cpu.HasSSSE3
)

// mulSumGFNI sets dst[i] = Σⱼ c·srcs[j][i] with c = coefs[j] for every
// i < len(dst), where tbl is affTable. len(dst) must be a multiple of
// 64, srcs must hold at least one source, coefs a coefficient for each,
// and every source must be at least as long as dst.
//
//go:noescape
func mulSumGFNI(dst []byte, srcs [][]byte, coefs []byte, tbl *[256]uint64)

// mulSetSSSE3 sets dst[i] = c·src[i] and mulAddSSSE3 sets dst[i] ^=
// c·src[i], for every i < len(src), where tbl is c's row of nibTable.
// len(src) must be a multiple of 16 and dst at least as long.
//
//go:noescape
func mulSetSSSE3(dst, src []byte, tbl *[32]byte)

//go:noescape
func mulAddSSSE3(dst, src []byte, tbl *[32]byte)
