package erasure

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// encodeGoldenLengths straddle every CRC dispatch boundary a shard
// payload can hit at 2+1 and 4+2, from an empty object to one whose
// shards are hundreds of KiB with an odd tail.
var encodeGoldenLengths = []int{0, 1, 63, 64, 255, 256, 4095, 4096, 1<<20 + 3}

// encodeGolden is the SHA-256 of every shard EncodeObject returns and
// every shard ReconstructShards rebuilds, over encodeGoldenLengths, per
// geometry.
var encodeGolden = []struct {
	k, m int
	sum  string
}{
	{2, 1, "c9572e214fe6ddda83d5de7974efc46080c82c8bd12f1813c63fbcfb4d3cc4b5"},
	{4, 2, "27f260fff57faed0a316cceab56edbd8dcbc4beee396652a0bae4301df1cab2c"},
}

// TestEncodeObjectGolden pins the stored shard bytes (payloads and
// headers, the payload CRC-32 among them): a change to the codec or the
// checksum that is meant to be host-only must leave every blob
// byte-identical. Each length's data comes from its own seeded source;
// the repair drops the first data shard and, at m > 1, the last parity
// shard, so it needs the matrix solve.
func TestEncodeObjectGolden(t *testing.T) {
	for _, g := range encodeGolden {
		h := sha256.New()
		for _, n := range encodeGoldenLengths {
			data := make([]byte, n)
			rand.New(rand.NewSource(int64(n))).Read(data)
			shards, err := EncodeObject(data, g.k, g.m)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range shards {
				h.Write(b)
			}
			holed := append([][]byte(nil), shards...)
			holed[0] = nil
			if g.m > 1 {
				holed[len(holed)-1] = nil
			}
			rebuilt, err := ReconstructShards(holed)
			if err != nil {
				t.Fatalf("%d+%d len %d: %v", g.k, g.m, n, err)
			}
			for _, b := range rebuilt {
				h.Write(b)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != g.sum {
			t.Errorf("%d+%d: shard sha256 %s, want %s", g.k, g.m, got, g.sum)
		}
	}
}
