package erasure

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"
)

// aliases reports whether p lies inside one of blobs' backing arrays.
func aliases(p []byte, blobs [][]byte) bool {
	if cap(p) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	for _, b := range blobs {
		if cap(b) == 0 {
			continue
		}
		start := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		if lo >= start && lo < start+uintptr(cap(b)) {
			return true
		}
	}
	return false
}

// TestDecodePlanesMatchesDecodeAny: for every geometry, length and lost
// shard, DecodePlanes returns k planes, each clipped to its span of the
// object with capacity equal to length, whose concatenation is
// DecodeAny's output, with the same solved verdict. A plane whose data
// shard was read is that shard's payload; a solved plane aliases no
// blob; and neither decode changes a blob.
func TestDecodePlanesMatchesDecodeAny(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, geo := range []struct{ k, m int }{{1, 1}, {2, 1}, {3, 2}, {4, 2}} {
		for _, size := range []int{0, 1, 2, 5, 4096, 4097, 3001} {
			data := make([]byte, size)
			rng.Read(data)
			shards, err := EncodeObject(data, geo.k, geo.m)
			if err != nil {
				t.Fatal(err)
			}
			pristine := make([][]byte, len(shards))
			for i, b := range shards {
				pristine[i] = bytes.Clone(b)
			}
			for lost := -1; lost < geo.k+geo.m; lost++ {
				blobs := append([][]byte(nil), shards...)
				if lost >= 0 {
					blobs[lost] = nil
				}
				want, wantSolved, err := DecodeAny(blobs)
				if err != nil {
					t.Fatal(err)
				}
				planes, solved, err := DecodePlanes(blobs)
				if err != nil || solved != wantSolved || len(planes) != geo.k {
					t.Fatalf("k=%d m=%d size=%d lost=%d: %d planes, solved=%v (want %v), err=%v",
						geo.k, geo.m, size, lost, len(planes), solved, wantSolved, err)
				}
				if !bytes.Equal(bytes.Join(planes, nil), want) {
					t.Fatalf("k=%d m=%d size=%d lost=%d: joined planes differ from DecodeAny", geo.k, geo.m, size, lost)
				}
				planeLen := (size + geo.k - 1) / geo.k
				for r, p := range planes {
					lo := min(r*planeLen, size)
					if n := min(lo+planeLen, size) - lo; len(p) != n || cap(p) != n {
						t.Fatalf("k=%d m=%d size=%d lost=%d: plane %d len %d cap %d, want both %d",
							geo.k, geo.m, size, lost, r, len(p), cap(p), n)
					}
					if len(p) == 0 {
						continue
					}
					if read := r != lost; aliases(p, shards) != read {
						t.Fatalf("k=%d m=%d size=%d lost=%d: plane %d aliases a shard: %v, want %v",
							geo.k, geo.m, size, lost, r, !read, read)
					}
				}
				for i := range shards {
					if !bytes.Equal(shards[i], pristine[i]) {
						t.Fatalf("k=%d m=%d size=%d lost=%d: decoding changed shard %d", geo.k, geo.m, size, lost, i)
					}
				}
			}
		}
	}
}

// TestDecodePlanesErrors: DecodePlanes fails exactly where DecodeAny
// does.
func TestDecodePlanesErrors(t *testing.T) {
	shards, err := EncodeObject(bytes.Repeat([]byte("planes"), 100), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	torn := bytes.Clone(shards[1])
	torn[len(torn)-1] ^= 1
	for _, blobs := range [][][]byte{nil, {shards[0]}, {shards[0], nil, nil}, {shards[0], torn}} {
		_, _, wantErr := DecodeAny(blobs)
		if _, _, err := DecodePlanes(blobs); (err == nil) != (wantErr == nil) || wantErr == nil {
			t.Fatalf("DecodePlanes err = %v, DecodeAny err = %v; want both to fail", err, wantErr)
		}
	}
}

// TestDecodePlanesHealthyAllocatesNoPayload: a healthy DecodePlanes of a
// 1 MiB object borrows both data planes, so what it allocates is the
// group bookkeeping and the plane list, far below one plane.
func TestDecodePlanesHealthyAllocatesNoPayload(t *testing.T) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(12)).Read(data)
	shards, err := EncodeObject(data, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if per := bytesPerRun(20, func() {
		if _, solved, err := DecodePlanes(shards); err != nil || solved {
			t.Fatalf("healthy DecodePlanes: solved=%v err=%v", solved, err)
		}
	}); per > 4<<10 {
		t.Fatalf("healthy DecodePlanes allocates %d bytes per call, want at most 4 KiB", per)
	}
}

// BenchmarkDecodePlanes decodes the 4 MiB 2+1 object as its planes:
// healthy (both data planes borrowed) and degraded (data shard 0 lost,
// its plane solved into fresh memory and the other borrowed).
func BenchmarkDecodePlanes(b *testing.B) {
	for _, lost := range []int{-1, 0} {
		name := "healthy"
		if lost >= 0 {
			name = "degraded"
		}
		b.Run(name, func(b *testing.B) {
			shards := benchShards(b)
			if lost >= 0 {
				shards[lost] = nil
			}
			b.SetBytes(benchSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := DecodePlanes(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
