//go:build !amd64

package erasure

// useSSSE3 is false: this GOARCH has no PSHUFB kernel.
const useSSSE3 = false

func mulAddSSSE3(dst, src []byte, tbl *[32]byte) {
	panic("erasure: no PSHUFB kernel on this GOARCH")
}
