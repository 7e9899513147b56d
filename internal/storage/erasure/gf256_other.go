//go:build !amd64

package erasure

// useGFNI and useSSSE3 are false: this GOARCH has no vector kernel.
var useGFNI, useSSSE3 = false, false

func mulSumGFNI(dst []byte, srcs [][]byte, coefs []byte, tbl *[256]uint64) {
	panic("erasure: no GFNI kernel on this GOARCH")
}

func mulSetSSSE3(dst, src []byte, tbl *[32]byte) {
	panic("erasure: no PSHUFB kernel on this GOARCH")
}

func mulAddSSSE3(dst, src []byte, tbl *[32]byte) {
	panic("erasure: no PSHUFB kernel on this GOARCH")
}
