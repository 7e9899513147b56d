package erasure

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestGF256Axioms sanity-checks the field tables: multiplicative
// inverses and distributivity over a sample of the field.
func TestGF256Axioms(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := gmul(byte(a), ginv(byte(a))); got != 1 {
			t.Fatalf("a*inv(a) = %d for a=%d", got, a)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gmul(a, b^c) != gmul(a, b)^gmul(a, c) {
			t.Fatalf("distributivity fails at a=%d b=%d c=%d", a, b, c)
		}
		if gmul(a, b) != gmul(b, a) {
			t.Fatalf("commutativity fails at a=%d b=%d", a, b)
		}
	}
}

// TestRoundTripAllErasurePatterns encodes at several geometries and
// decodes from every subset of exactly k shards — the full strength
// claim: any n−k losses are survivable, not just the easy ones.
func TestRoundTripAllErasurePatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, geo := range []struct{ k, m int }{{1, 1}, {2, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 1}} {
		for _, size := range []int{0, 1, 7, 64, 1000, 4096} {
			data := make([]byte, size)
			rng.Read(data)
			shards, err := EncodeObject(data, geo.k, geo.m)
			if err != nil {
				t.Fatalf("encode k=%d m=%d size=%d: %v", geo.k, geo.m, size, err)
			}
			n := geo.k + geo.m
			forEachSubset(n, geo.k, func(keep []int) {
				subset := make([][]byte, 0, len(keep))
				for _, idx := range keep {
					subset = append(subset, shards[idx])
				}
				got, err := DecodeObject(subset)
				if err != nil {
					t.Fatalf("decode k=%d m=%d size=%d keep=%v: %v", geo.k, geo.m, size, keep, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("round trip mismatch k=%d m=%d size=%d keep=%v", geo.k, geo.m, size, keep)
				}
				anyGot, solved, err := DecodeAny(subset)
				if err != nil || !bytes.Equal(anyGot, data) {
					t.Fatalf("DecodeAny k=%d m=%d size=%d keep=%v: %v", geo.k, geo.m, size, keep, err)
				}
				if want := keep[len(keep)-1] >= geo.k; solved != want {
					t.Fatalf("DecodeAny k=%d m=%d keep=%v: solved=%v, want %v", geo.k, geo.m, keep, solved, want)
				}
			})
		}
	}
}

// forEachSubset calls fn with every size-k subset of 0..n-1.
func forEachSubset(n, k int, fn func([]int)) {
	idx := make([]int, k)
	var rec func(start, d int)
	rec = func(start, d int) {
		if d == k {
			fn(idx)
			return
		}
		for i := start; i < n; i++ {
			idx[d] = i
			rec(i+1, d+1)
		}
	}
	rec(0, 0)
}

// TestDecodeTooFewShards asserts the typed failure when more than m
// shards are gone.
func TestDecodeTooFewShards(t *testing.T) {
	shards, err := EncodeObject([]byte("checkpoint image bytes"), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeObject(shards[:2]); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("want ErrInsufficient, got %v", err)
	}
	if _, err := DecodeObject(nil); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("want ErrInsufficient for empty input, got %v", err)
	}
}

// TestCorruptShardTreatedAsMissing flips payload bytes: the CRC must
// disqualify the shard, and the decode must still succeed off the
// survivors when enough remain.
func TestCorruptShardTreatedAsMissing(t *testing.T) {
	data := bytes.Repeat([]byte{0xAB, 0x5C, 3}, 500)
	shards, err := EncodeObject(data, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	shards[0][headerLen] ^= 0xFF // tear a data shard's payload
	if _, err := ParseShard(shards[0]); !errors.Is(err, ErrBadShard) {
		t.Fatalf("corrupt shard parsed: %v", err)
	}
	got, err := DecodeObject(shards)
	if err != nil {
		t.Fatalf("decode around corrupt shard: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decode around corrupt shard returned wrong bytes")
	}
	// Corrupt one more: only one valid shard remains, below k=2.
	shards[1][headerLen] ^= 0xFF
	if _, err := DecodeObject(shards); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("want ErrInsufficient with two corrupt shards, got %v", err)
	}
}

// TestShardHeaderRoundTrip checks ParseShard recovers the geometry.
func TestShardHeaderRoundTrip(t *testing.T) {
	shards, err := EncodeObject(make([]byte, 100), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range shards {
		s, err := ParseShard(b)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if s.Index != i || s.K != 4 || s.M != 2 || s.OrigLen != 100 {
			t.Fatalf("shard %d header = %+v", i, s)
		}
	}
	if _, err := ParseShard([]byte("not a shard")); !errors.Is(err, ErrBadShard) {
		t.Fatalf("junk parsed: %v", err)
	}
}

// TestReconstructShards loses a shard, rebuilds the full set, and
// verifies the rebuilt shard is byte-identical to the original — the
// repair path must produce shards any future decode accepts.
func TestReconstructShards(t *testing.T) {
	data := make([]byte, 3000)
	rand.New(rand.NewSource(3)).Read(data)
	shards, err := EncodeObject(data, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	holed := make([][]byte, len(shards))
	copy(holed, shards)
	holed[1], holed[4] = nil, nil
	rebuilt, err := ReconstructShards(holed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(rebuilt[i], shards[i]) {
			t.Fatalf("rebuilt shard %d differs from original", i)
		}
	}
}

// TestEncodeBadParameters rejects impossible geometries.
func TestEncodeBadParameters(t *testing.T) {
	for _, geo := range []struct{ k, m int }{{0, 1}, {1, 0}, {-1, 2}, {2, -1}, {200, 100}} {
		if _, err := EncodeObject([]byte("x"), geo.k, geo.m); !errors.Is(err, ErrBadParameters) {
			t.Fatalf("k=%d m=%d accepted: %v", geo.k, geo.m, err)
		}
	}
}

// FuzzErasureRoundTrip is the shard encode/decode fuzz target: for any
// payload and geometry, dropping any m shards must still decode to the
// original bytes, and ParseShard must never panic on mutated blobs.
func FuzzErasureRoundTrip(f *testing.F) {
	f.Add([]byte("seed checkpoint bytes"), uint8(2), uint8(1), uint16(0))
	f.Add([]byte{}, uint8(1), uint8(2), uint16(1))
	f.Add(bytes.Repeat([]byte{7}, 700), uint8(4), uint8(3), uint16(0x5a5a))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, mRaw uint8, dropMask uint16) {
		k := int(kRaw)%6 + 1
		m := int(mRaw)%4 + 1
		shards, err := EncodeObject(data, k, m)
		if err != nil {
			t.Fatalf("encode k=%d m=%d: %v", k, m, err)
		}
		// Drop up to m shards chosen by the mask bits.
		dropped := 0
		subset := make([][]byte, len(shards))
		copy(subset, shards)
		for i := 0; i < len(shards) && dropped < m; i++ {
			if dropMask&(1<<i) != 0 {
				subset[i] = nil
				dropped++
			}
		}
		got, err := DecodeObject(subset)
		if err != nil {
			t.Fatalf("decode with %d dropped: %v", dropped, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip mismatch k=%d m=%d len=%d", k, m, len(data))
		}
		// DecodeAny must agree with the strict decoder on one encoding, and
		// report a solve exactly when one of the k shards it used (the
		// first k survivors, in order) is a parity shard.
		anyGot, solved, err := DecodeAny(subset)
		if err != nil || !bytes.Equal(anyGot, got) {
			t.Fatalf("DecodeAny disagrees with DecodeObject k=%d m=%d len=%d: %v", k, m, len(data), err)
		}
		wantSolved, used := false, 0
		for i, b := range subset {
			if b == nil || used == k {
				continue
			}
			used++
			wantSolved = wantSolved || i >= k
		}
		if solved != wantSolved {
			t.Fatalf("DecodeAny solved=%v, want %v (k=%d m=%d dropMask=%#x)", solved, wantSolved, k, m, dropMask)
		}
		// DecodePlanes is the same decode, unjoined.
		planes, planesSolved, err := DecodePlanes(subset)
		if err != nil || planesSolved != solved || len(planes) != k || !bytes.Equal(bytes.Join(planes, nil), got) {
			t.Fatalf("DecodePlanes disagrees with DecodeAny k=%d m=%d len=%d: solved=%v err=%v", k, m, len(data), planesSolved, err)
		}
		// ParseShard must be total on arbitrary mutations.
		if len(shards[0]) > 0 {
			mut := append([]byte(nil), shards[0]...)
			mut[int(dropMask)%len(mut)] ^= 0x40
			_, _ = ParseShard(mut)
		}
	})
}

// TestDecodeAnyMixedEncodings: a gather holding shards of two different
// encodings under one name — the residue of a re-encode that missed a
// replica — defeats the strict decoder but not DecodeAny, which must
// pick the consistent group that can actually decode. When both groups
// are decodable, the larger original length wins (re-encodes under one
// name only ever fold deltas into fuller images).
func TestDecodeAnyMixedEncodings(t *testing.T) {
	old := bytes.Repeat([]byte("old delta "), 30)
	cur := bytes.Repeat([]byte("folded full image "), 50)
	oldShards, err := EncodeObject(old, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	curShards, err := EncodeObject(cur, 2, 1)
	if err != nil {
		t.Fatal(err)
	}

	// One stale shard alongside a full current set: strict decode refuses
	// the mix when the stale shard arrives first, DecodeAny recovers.
	mixed := [][]byte{oldShards[2], curShards[0], curShards[1], curShards[2]}
	if _, err := DecodeObject(mixed); err == nil {
		t.Fatal("strict decode accepted mixed encodings")
	}
	got, solved, err := DecodeAny(mixed)
	if err != nil || !bytes.Equal(got, cur) {
		t.Fatalf("DecodeAny on mixed gather: %v", err)
	}
	if solved {
		t.Fatal("DecodeAny solved although both current data shards were present")
	}

	// Both groups decodable: the larger origLen wins deterministically.
	both := [][]byte{oldShards[0], oldShards[1], curShards[0], curShards[1]}
	got, _, err = DecodeAny(both)
	if err != nil || !bytes.Equal(got, cur) {
		t.Fatalf("DecodeAny did not prefer the larger encoding: %v", err)
	}

	// Only the stale group reaches k: it still decodes (better a stale
	// restorable image than none).
	staleOnly := [][]byte{oldShards[0], oldShards[1], curShards[2]}
	got, _, err = DecodeAny(staleOnly)
	if err != nil || !bytes.Equal(got, old) {
		t.Fatalf("DecodeAny with only the stale group decodable: %v", err)
	}

	if _, _, err := DecodeAny(nil); err == nil {
		t.Fatal("DecodeAny on empty gather succeeded")
	}
}

// encodeReference is the byte-at-a-time encoder the table-driven one
// replaced: planes copied out of data, parity accumulated one gmul per
// byte, each shard sealed by copying its payload behind a fresh header.
// It pins the shard format — EncodeObject must match it byte for byte.
func encodeReference(data []byte, k, m int) [][]byte {
	shardLen := (len(data) + k - 1) / k
	planes := make([][]byte, k)
	for i := range planes {
		planes[i] = make([]byte, shardLen)
		if lo := i * shardLen; lo < len(data) {
			copy(planes[i], data[lo:])
		}
	}
	mat := codingMatrix(k, m)
	shards := make([][]byte, k+m)
	for r := range shards {
		payload := make([]byte, shardLen)
		if r < k {
			copy(payload, planes[r])
		} else {
			for c := 0; c < k; c++ {
				for i := range payload {
					payload[i] ^= gmul(mat[r][c], planes[c][i])
				}
			}
		}
		b := make([]byte, headerLen+shardLen)
		b[0], b[1], b[2] = shardMagic0, shardMagic1, shardVersion
		b[3], b[4], b[5] = byte(r), byte(k), byte(m)
		binary.BigEndian.PutUint32(b[6:], uint32(len(data)))
		binary.BigEndian.PutUint32(b[10:], crc32.ChecksumIEEE(payload))
		copy(b[headerLen:], payload)
		shards[r] = b
	}
	return shards
}

// TestEncodeMatchesReference: the in-place, kernel-driven encoder emits
// exactly the reference encoder's shards at every geometry and at the
// sizes where padding and plane boundaries bite.
func TestEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, geo := range []struct{ k, m int }{{1, 1}, {2, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 1}, {10, 4}} {
		kn := geo.k * (geo.k + geo.m)
		sizes := []int{0, 1, 7, kn - 1, kn + 1}
		if !testing.Short() {
			sizes = append(sizes, 4<<20+13)
		}
		for _, size := range sizes {
			data := make([]byte, size)
			rng.Read(data)
			got, err := EncodeObject(data, geo.k, geo.m)
			if err != nil {
				t.Fatalf("encode k=%d m=%d size=%d: %v", geo.k, geo.m, size, err)
			}
			want := encodeReference(data, geo.k, geo.m)
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("k=%d m=%d size=%d: shard %d differs from the reference encoder", geo.k, geo.m, size, i)
				}
			}
		}
	}
}

// TestDecodeAnyNeverAliases: DecodeAny's output is a fresh buffer at
// k=1 and k≥2, healthy and degraded. Overwriting every output byte must
// leave each input blob as encoded and a second decode unchanged — the
// store serves its blobs as shared read-only slices.
func TestDecodeAnyNeverAliases(t *testing.T) {
	data := make([]byte, 3001)
	rand.New(rand.NewSource(7)).Read(data)
	for _, geo := range []struct{ k, m int }{{1, 1}, {2, 1}, {3, 2}} {
		shards, err := EncodeObject(data, geo.k, geo.m)
		if err != nil {
			t.Fatal(err)
		}
		pristine := make([][]byte, len(shards))
		for i, b := range shards {
			pristine[i] = append([]byte(nil), b...)
		}
		for _, lost := range []int{-1, 0} { // healthy, then data shard 0 lost
			blobs := append([][]byte(nil), shards...)
			if lost >= 0 {
				blobs[lost] = nil
			}
			got, solved, err := DecodeAny(blobs)
			if err != nil || !bytes.Equal(got, data) || solved != (lost >= 0) {
				t.Fatalf("k=%d m=%d lost=%d: solved=%v err=%v", geo.k, geo.m, lost, solved, err)
			}
			for i := range got {
				got[i] ^= 0xff
			}
			for i := range shards {
				if !bytes.Equal(shards[i], pristine[i]) {
					t.Fatalf("k=%d m=%d lost=%d: writing the output changed shard %d", geo.k, geo.m, lost, i)
				}
			}
			if again, _, err := DecodeAny(blobs); err != nil || !bytes.Equal(again, data) {
				t.Fatalf("k=%d m=%d lost=%d: second decode after writing the first: %v", geo.k, geo.m, lost, err)
			}
		}
	}
}

// Codec benchmarks (the kernels alone are in kernel_test.go): at the
// replicated store's default geometry (2+1) and a 4 MiB object, encode,
// a healthy read (both data shards present, the concatenation fast
// path), and a degraded read (data shard 0 lost, a parity solve).
const benchSize = 4 << 20

func benchData() []byte {
	data := make([]byte, benchSize)
	rand.New(rand.NewSource(6)).Read(data)
	return data
}

func benchShards(b *testing.B) [][]byte {
	shards, err := EncodeObject(benchData(), 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	return shards
}

func BenchmarkEncode(b *testing.B) {
	data := benchData()
	b.SetBytes(benchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeObject(data, 2, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecode(b *testing.B, blobs [][]byte) {
	b.SetBytes(benchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeAny(blobs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeHealthy(b *testing.B) {
	benchDecode(b, benchShards(b))
}

func BenchmarkDecodeDegraded(b *testing.B) {
	shards := benchShards(b)
	shards[0] = nil
	benchDecode(b, shards)
}
