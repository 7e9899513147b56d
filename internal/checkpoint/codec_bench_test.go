package checkpoint

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/crc"
	"repro/internal/simos/mem"
	"repro/internal/workload"
)

// benchImageBytes is the memory payload of the codec benchmarks' image.
const benchImageBytes = 4 << 20

// benchImage returns a 4 MiB image shaped like the two captures the
// workloads ship: one VMA captured as a single contiguous run (a full
// image) and one captured page by page (a dirty-page delta), plus the
// corpus image's metadata sections.
func benchImage() *Image {
	rng := rand.New(rand.NewSource(4))
	img := corpusImage()
	run := make([]byte, benchImageBytes/2)
	rng.Read(run)
	img.VMAs = []VMASection{
		{Start: 0x1000_0000, Length: uint64(len(run)), Kind: mem.KindHeap, Name: "[heap]", Prot: mem.ProtRW,
			Extents: []Extent{{Addr: 0x1000_0000, Data: run}}},
		{Start: 0x2000_0000, Length: 2 * benchImageBytes, Kind: mem.KindAnon, Name: "arena", Prot: mem.ProtRW},
	}
	pages := &img.VMAs[1]
	for p := 0; p < benchImageBytes/2/mem.PageSize; p++ {
		data := make([]byte, mem.PageSize)
		rng.Read(data)
		pages.Extents = append(pages.Extents, Extent{Addr: pages.Start + mem.Addr(2*p*mem.PageSize), Data: data})
	}
	return img
}

func BenchmarkDecode(b *testing.B) {
	data, err := benchImage().EncodeBytes()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeBytes(b *testing.B) {
	img := benchImage()
	b.SetBytes(benchImageBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := img.EncodeBytes(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeParallelBytes(b *testing.B) {
	img := benchImage()
	b.SetBytes(benchImageBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := img.EncodeParallelBytes(2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCRC64Combine folds the span CRCs of a sharded 4 MiB encode:
// one combine per shardTargetBytes piece.
func BenchmarkCRC64Combine(b *testing.B) {
	b.ReportAllocs()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum = crc.Combine(sum, uint64(i), shardTargetBytes)
	}
	sinkCRC = sum
}

var sinkCRC uint64

// benchChain loads a 17-image chain (one full, 16 deltas) for the
// replay benchmarks.
func benchChain(b *testing.B) []*Image {
	remote, leaf := buildChain(b, 17)
	chain, err := LoadChain(remote, nil, leaf)
	if err != nil {
		b.Fatal(err)
	}
	return chain
}

// benchChainBlobs returns the stored encodings of benchChain's images,
// oldest first.
func benchChainBlobs(tb testing.TB) [][]byte {
	remote, leaf := buildChain(tb, 17)
	chain, err := LoadChain(remote, nil, leaf)
	if err != nil {
		tb.Fatal(err)
	}
	blobs := make([][]byte, len(chain))
	for i, img := range chain {
		if blobs[i], err = remote.ReadObject(img.ObjectName(), nil); err != nil {
			tb.Fatal(err)
		}
	}
	return blobs
}

// BenchmarkFoldEncodedChain folds the 17-image chain into one full
// image: decode every link, fold, re-encode.
func BenchmarkFoldEncodedChain(b *testing.B) {
	blobs := benchChainBlobs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FoldEncodedChain(blobs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanReplay(b *testing.B) {
	chain := benchChain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planReplay(chain); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyPlan replays the chain's plan into an address space
// whose pages a first restore already materialized.
func BenchmarkApplyPlan(b *testing.B) {
	chain := benchChain(b)
	plan, err := planReplay(chain)
	if err != nil {
		b.Fatal(err)
	}
	p, err := Restore(newMachine("dst", workload.Sparse{MiB: 2, WriteFrac: 0.15, Seed: 42}), chain, RestoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(plan.copied))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := applyPlan(p.AS, &plan, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
