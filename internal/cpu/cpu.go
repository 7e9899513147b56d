// Package cpu probes, once at start-up, the x86 instruction-set
// extensions that the repository's assembly kernels need: PCLMULQDQ for
// the CRC-64 fold in internal/crc and SSSE3 (PSHUFB) for the GF(256)
// multiply in internal/storage/erasure. Both come from CPUID leaf 1,
// which needs no XGETBV or OS-state check: the kernels use only the
// 128-bit XMM registers every amd64 OS saves. On every other GOARCH each
// flag is false, and each kernel's package keeps its own table fallback.
package cpu

var (
	// HasPCLMULQDQ reports carry-less multiply (CPUID leaf 1, ECX bit 1).
	HasPCLMULQDQ bool
	// HasSSSE3 reports SSSE3, whose PSHUFB is a 16-way byte table
	// lookup (CPUID leaf 1, ECX bit 9).
	HasSSSE3 bool
)
