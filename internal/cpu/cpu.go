// Package cpu probes, once at start-up, the x86 instruction-set
// extensions that the repository's assembly kernels need: PCLMULQDQ for
// the 16-byte CRC fold in internal/crc, AVX-512F with VPCLMULQDQ for its
// 64-byte (ZMM) fold, and, for the GF(256) multiply in
// internal/storage/erasure, AVX-512F with GFNI for its 64-byte affine
// kernel and SSSE3 (PSHUFB) for its 16-byte fallback. PCLMULQDQ and
// SSSE3 come from CPUID leaf 1 and run in the 128-bit XMM registers
// every amd64 OS saves. The two ZMM flags also need CPUID leaf 7 and an
// OS check: leaf 1's OSXSAVE bit and XGETBV must show that the OS saves
// the opmask and all 512 bits of every vector register, or a kernel
// would lose state at a context switch. On every other GOARCH each flag
// is false, and each kernel's package keeps its own table fallback.
package cpu

var (
	// HasPCLMULQDQ reports carry-less multiply (CPUID leaf 1, ECX bit 1).
	HasPCLMULQDQ bool
	// HasSSSE3 reports SSSE3, whose PSHUFB is a 16-way byte table
	// lookup (CPUID leaf 1, ECX bit 9).
	HasSSSE3 bool
	// HasAVX512VPCLMULQDQ reports AVX-512F (CPUID leaf 7, EBX bit 16)
	// and VPCLMULQDQ, carry-less multiply on every 128-bit lane of a
	// ZMM register (leaf 7, ECX bit 10), with the OS saving ZMM state.
	HasAVX512VPCLMULQDQ bool
	// HasAVX512GFNI reports AVX-512F (CPUID leaf 7, EBX bit 16) and
	// GFNI, whose VGF2P8AFFINEQB applies an 8×8 bit matrix to every
	// byte of a ZMM register (leaf 7, ECX bit 8), with the OS saving ZMM
	// state.
	HasAVX512GFNI bool
)
