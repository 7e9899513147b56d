package cpu

func init() {
	ecx := cpuid1ECX()
	HasPCLMULQDQ = ecx&(1<<1) != 0
	HasSSSE3 = ecx&(1<<9) != 0
}

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32
