package cpu

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestFlagsMatchProcCPUInfo checks the probe against the kernel's own
// CPUID reading: on amd64 each flag must agree with the "flags" line of
// /proc/cpuinfo, and every other GOARCH (386 included) reports none.
// Linux lists avx512f only when it saves ZMM state, so each ZMM flag must
// be set exactly when it lists avx512f and the flag's extension:
// vpclmulqdq, or gfni.
func TestFlagsMatchProcCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if HasPCLMULQDQ || HasSSSE3 || HasAVX512VPCLMULQDQ || HasAVX512GFNI {
			t.Fatalf("%s reports x86 extensions", runtime.GOARCH)
		}
		return
	}
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(raw), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(val)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	if want := slices.Contains(flags, "pclmulqdq"); HasPCLMULQDQ != want {
		t.Errorf("HasPCLMULQDQ = %v, /proc/cpuinfo says %v", HasPCLMULQDQ, want)
	}
	if want := slices.Contains(flags, "ssse3"); HasSSSE3 != want {
		t.Errorf("HasSSSE3 = %v, /proc/cpuinfo says %v", HasSSSE3, want)
	}
	want := slices.Contains(flags, "avx512f") && slices.Contains(flags, "vpclmulqdq")
	if HasAVX512VPCLMULQDQ != want {
		t.Errorf("HasAVX512VPCLMULQDQ = %v, /proc/cpuinfo lists avx512f and vpclmulqdq: %v", HasAVX512VPCLMULQDQ, want)
	}
	want = slices.Contains(flags, "avx512f") && slices.Contains(flags, "gfni")
	if HasAVX512GFNI != want {
		t.Errorf("HasAVX512GFNI = %v, /proc/cpuinfo lists avx512f and gfni: %v", HasAVX512GFNI, want)
	}
}
