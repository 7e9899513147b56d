package detector

import (
	"testing"

	"repro/internal/simtime"
)

// BenchmarkDigestIngest folds one full 157-member digest (a 10k-node,
// 64-shard fleet's shard) into a timeout detector per op: the observer
// side of one shard tick.
func BenchmarkDigestIngest(b *testing.B) {
	const base, n = 1570, 157
	di := NewDigestIngest(NewTimeout(4*simtime.Millisecond), nil)
	for i := 0; i < n; i++ {
		di.Prime(base+i, 0)
	}
	d := NewDigest(9, base, n)
	for i := 0; i < n; i++ {
		d.MarkPresent(i, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Seq = uint64(i + 1)
		now := simtime.Time(i+1) * simtime.Time(simtime.Millisecond)
		d.SentAt = now
		if !di.Observe(d, now) {
			b.Fatal("fresh digest dropped as a duplicate")
		}
	}
}
