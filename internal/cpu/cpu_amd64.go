package cpu

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	HasPCLMULQDQ = ecx1&(1<<1) != 0
	HasSSSE3 = ecx1&(1<<9) != 0
	if maxLeaf < 7 || ecx1&(1<<27) == 0 {
		return // no leaf 7, or no OSXSAVE and so no XGETBV
	}
	// XCR0 bits 1, 2 and 5-7: SSE, AVX, opmask, and the upper halves of
	// ZMM0-15 and all of ZMM16-31.
	if xgetbv0()&0xE6 != 0xE6 {
		return
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	avx512f := ebx7&(1<<16) != 0
	HasAVX512VPCLMULQDQ = avx512f && ecx7&(1<<10) != 0
	HasAVX512GFNI = avx512f && ecx7&(1<<8) != 0
}

// cpuid returns the registers of CPUID leaf eax, subleaf ecx.
func cpuid(eax, ecx uint32) (a, b, c, d uint32)

// xgetbv0 returns the low 32 bits of XCR0. Call it only when CPUID
// reports OSXSAVE.
func xgetbv0() uint32
