//go:build !amd64

package crc

// useCLMUL and useWide are false: this GOARCH has no carry-less
// multiply kernel.
const (
	useCLMUL = false
	useWide  = false
)

func foldCLMUL(state uint64, p []byte, k *foldKeys) (lo, hi uint64) {
	panic("crc: no carry-less multiply kernel on this GOARCH")
}

func foldWide(state uint64, p []byte, k *foldKeys) (lo, hi uint64) {
	panic("crc: no carry-less multiply kernel on this GOARCH")
}
