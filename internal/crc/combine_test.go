package crc

import (
	"hash/crc64"
	"math/rand"
	"testing"
)

func TestCRC64Combine(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 50; trial++ {
		a := make([]byte, rng.Intn(5000))
		b := make([]byte, rng.Intn(5000))
		rng.Read(a)
		rng.Read(b)
		crcA := crc64.Checksum(a, table)
		crcB := crc64.Checksum(b, table)
		want := crc64.Checksum(append(append([]byte(nil), a...), b...), table)
		if got := Combine(crcA, crcB, len(b)); got != want {
			t.Fatalf("trial %d (len %d+%d): combine = %#x, want %#x",
				trial, len(a), len(b), got, want)
		}
	}
	// Edge cases: empty halves.
	data := []byte("payload")
	crc := crc64.Checksum(data, table)
	if got := Combine(crc, crc64.Checksum(nil, table), 0); got != crc {
		t.Fatalf("combine with empty B: %#x, want %#x", got, crc)
	}
	if got := Combine(crc64.Checksum(nil, table), crc, len(data)); got != crc {
		t.Fatalf("combine with empty A: %#x, want %#x", got, crc)
	}
}

func TestCRC64CombineFold(t *testing.T) {
	// Folding many shards left-to-right matches one sequential pass —
	// the exact reduction the parallel encoder performs.
	rng := rand.New(rand.NewSource(65))
	full := make([]byte, 1<<16)
	rng.Read(full)
	want := crc64.Checksum(full, table)
	for _, shards := range []int{1, 2, 3, 7, 16} {
		crc := uint64(0)
		off := 0
		for s := 0; s < shards; s++ {
			end := (s + 1) * len(full) / shards
			part := full[off:end]
			crc = Combine(crc, crc64.Checksum(part, table), len(part))
			off = end
		}
		if crc != want {
			t.Fatalf("%d shards: folded crc %#x, want %#x", shards, crc, want)
		}
	}
}

// TestCRC64CombineMatchesMatrix checks the power-table combine against
// the classic zlib matrix-squaring construction it replaced, on random
// CRC pairs and span lengths from zero up to 2^40.
func TestCRC64CombineMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 1000; trial++ {
		crc1, crc2 := rng.Uint64(), rng.Uint64()
		var len2 int
		switch trial % 4 {
		case 0:
			len2 = []int{0, 1, 7}[trial/4%3]
		default:
			len2 = int(rng.Int63n(1<<40) + 1)
		}
		if got, want := Combine(crc1, crc2, len2), crc64CombineMatrix(crc1, crc2, len2); got != want {
			t.Fatalf("trial %d (%#x, %#x, len %d): combine = %#x, matrix reference = %#x",
				trial, crc1, crc2, len2, got, want)
		}
	}
}

// crc64CombineMatrix is the classic zlib crc32_combine construction
// lifted to 64 bits: advance crc1 through len2 zero bytes by repeated
// squaring of the one-zero-bit operator matrix, then XOR crc2.
func crc64CombineMatrix(crc1, crc2 uint64, len2 int) uint64 {
	if len2 <= 0 {
		return crc1
	}
	var even, odd [64]uint64

	// odd = the operator advancing a CRC by one zero *bit* (reflected
	// polynomial in row 0, shift in the rest).
	odd[0] = crc64.ECMA
	row := uint64(1)
	for n := 1; n < 64; n++ {
		odd[n] = row
		row <<= 1
	}
	gf2MatrixSquare(&even, &odd) // two zero bits
	gf2MatrixSquare(&odd, &even) // four zero bits

	// Square up to one zero byte, then apply operators for each set bit
	// of len2, squaring as the bit weight doubles.
	n := len2
	for {
		gf2MatrixSquare(&even, &odd)
		if n&1 != 0 {
			crc1 = gf2MatrixTimes(&even, crc1)
		}
		n >>= 1
		if n == 0 {
			break
		}
		gf2MatrixSquare(&odd, &even)
		if n&1 != 0 {
			crc1 = gf2MatrixTimes(&odd, crc1)
		}
		n >>= 1
		if n == 0 {
			break
		}
	}
	return crc1 ^ crc2
}

// gf2MatrixTimes multiplies the 64x64 GF(2) matrix mat by the bit vector
// vec.
func gf2MatrixTimes(mat *[64]uint64, vec uint64) uint64 {
	var sum uint64
	for i := 0; vec != 0; vec >>= 1 {
		if vec&1 != 0 {
			sum ^= mat[i]
		}
		i++
	}
	return sum
}

// gf2MatrixSquare sets square = mat * mat.
func gf2MatrixSquare(square, mat *[64]uint64) {
	for n := 0; n < 64; n++ {
		square[n] = gf2MatrixTimes(mat, mat[n])
	}
}
