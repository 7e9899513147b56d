package erasure

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// bestGroupReference is BestGroup as it was when it CRC-checked every
// blob: parse and check each one, partition the valid shards into
// encoding groups by header, and pick the best group by the same order.
// Its Shards are all of the group's distinct shards in blob order.
func bestGroupReference(blobs [][]byte) (Group, error) {
	type group struct {
		Group
		seen [MaxShards]bool
	}
	var groups []*group
	for _, b := range blobs {
		if b == nil {
			continue
		}
		s, perr := ParseShard(b)
		if perr != nil {
			continue
		}
		var g *group
		for _, cand := range groups {
			if cand.K == s.K && cand.M == s.M && cand.OrigLen == s.OrigLen {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{Group: Group{K: s.K, M: s.M, OrigLen: s.OrigLen}}
			groups = append(groups, g)
		}
		if g.seen[s.Index] {
			continue
		}
		g.seen[s.Index] = true
		g.Shards = append(g.Shards, s)
	}
	better := func(a, b *group) bool {
		ad, bd := len(a.Shards) >= a.K, len(b.Shards) >= b.K
		switch {
		case ad != bd:
			return ad
		case len(a.Shards) != len(b.Shards):
			return len(a.Shards) > len(b.Shards)
		case a.OrigLen != b.OrigLen:
			return a.OrigLen > b.OrigLen
		case a.K != b.K:
			return a.K > b.K
		}
		return a.M > b.M
	}
	var best *group
	for _, g := range groups {
		if best == nil || better(g, best) {
			best = g
		}
	}
	if best == nil {
		return Group{}, ErrInsufficient
	}
	if have, k := len(best.Shards), best.K; have < k {
		return Group{}, fmt.Errorf("%w: have %d, need %d", ErrInsufficient, have, k)
	}
	return best.Group, nil
}

// groupTear is one way to damage a shard: XOR x into byte at (negative
// counts back from the end).
type groupTear struct {
	name string
	at   int
	x    byte
}

var groupTears = []groupTear{
	{"index", 3, 1},
	{"k", 4, 1},
	{"origlen", 9, 1},
	{"origlen2", 9, 2},
	{"crc", 10, 0x80},
	{"payload-first", headerLen, 0x40},
	{"payload-last", -1, 4},
}

// TestBestGroupMatchesReference: BestGroup, which CRC-checks only the
// shards its verdict needs when every header names one encoding, gives
// the reference's verdict on every input: the same error, the same
// encoding, the reference's first K shards (same indices, same payload
// slices) as the ones it uses, and a DecodeAny with the same bytes and
// solved verdict as decoding the reference group. The inputs cover, at
// 2+1, 3+2 and 4+2, every erasure pattern of the current encoding,
// crossed with no tear or one tear of a header byte or a payload byte
// in any surviving shard, with no duplicate or a duplicate index before
// or after the set, and with no stale shard, one stale shard of another
// encoding before or after the set, or a whole stale set after it.
func TestBestGroupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := 0
	for _, geo := range []struct{ k, m int }{{2, 1}, {3, 2}, {4, 2}} {
		n := geo.k + geo.m
		cur := make([]byte, 299)
		rng.Read(cur)
		old := make([]byte, 200)
		rng.Read(old)
		shards, err := EncodeObject(cur, geo.k, geo.m)
		if err != nil {
			t.Fatal(err)
		}
		stale, err := EncodeObject(old, geo.k, geo.m)
		if err != nil {
			t.Fatal(err)
		}
		for mask := 0; mask < 1<<n; mask++ {
			var present []int
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					present = append(present, i)
				}
			}
			tears := []func([][]byte) string{func([][]byte) string { return "intact" }}
			for _, p := range present {
				for _, tr := range groupTears {
					tears = append(tears, func(set [][]byte) string {
						b := bytes.Clone(set[p])
						at := tr.at
						if at < 0 {
							at += len(b)
						}
						b[at] ^= tr.x
						set[p] = b
						return fmt.Sprintf("tear %s of shard %d", tr.name, p)
					})
				}
			}
			for _, tear := range tears {
				for _, dup := range []string{"", "front", "back"} {
					for _, mix := range []string{"", "stale-front", "stale-back", "stale-set"} {
						set := make([][]byte, n)
						for _, p := range present {
							set[p] = shards[p]
						}
						what := tear(set)
						blobs := set
						if dup != "" && len(present) > 0 {
							d := shards[present[(mask+len(what))%len(present)]]
							if dup == "front" {
								blobs = append([][]byte{d}, blobs...)
							} else {
								blobs = append(blobs, d)
							}
						}
						switch mix {
						case "stale-front":
							blobs = append([][]byte{stale[n-1]}, blobs...)
						case "stale-back":
							blobs = append(blobs, stale[0])
						case "stale-set":
							blobs = append(blobs, stale...)
						}
						name := fmt.Sprintf("%d+%d present=%v %s dup=%q mix=%q", geo.k, geo.m, present, what, dup, mix)
						checkGroupMatchesReference(t, name, blobs)
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d gathers", cases)
}

func checkGroupMatchesReference(t *testing.T, name string, blobs [][]byte) {
	t.Helper()
	want, wantErr := bestGroupReference(blobs)
	got, err := BestGroup(blobs)
	if (err == nil) != (wantErr == nil) || err != nil && (err.Error() != wantErr.Error() || !errors.Is(err, ErrInsufficient)) {
		t.Fatalf("%s: BestGroup err = %v, reference %v", name, err, wantErr)
	}
	data, solved, derr := DecodeAny(blobs)
	if err != nil {
		if derr == nil || derr.Error() != err.Error() {
			t.Fatalf("%s: DecodeAny err = %v, want %v", name, derr, err)
		}
		return
	}
	if got.K != want.K || got.M != want.M || got.OrigLen != want.OrigLen || len(got.Shards) != got.K {
		t.Fatalf("%s: group %d+%d len %d with %d shards, reference %d+%d len %d",
			name, got.K, got.M, got.OrigLen, len(got.Shards), want.K, want.M, want.OrigLen)
	}
	for i, s := range got.Shards {
		w := want.Shards[i]
		if s.Index != w.Index || len(s.Payload) != len(w.Payload) || unsafe.SliceData(s.Payload) != unsafe.SliceData(w.Payload) {
			t.Fatalf("%s: shard %d used is index %d, reference %d (or another blob)", name, i, s.Index, w.Index)
		}
	}
	wantData, wantSolved, werr := decode(want.Shards)
	if derr != nil || werr != nil || solved != wantSolved || !bytes.Equal(data, wantData) {
		t.Fatalf("%s: DecodeAny solved=%v err=%v, reference decode solved=%v err=%v, bytes equal %v",
			name, solved, derr, wantSolved, werr, bytes.Equal(data, wantData))
	}
}
