//go:build !amd64

package crc

// useCLMUL is false: this GOARCH has no carry-less multiply kernel.
const useCLMUL = false

func foldCLMUL(state uint64, p []byte, k *[4]uint64) (lo, hi uint64) {
	panic("crc: no carry-less multiply kernel on this GOARCH")
}
