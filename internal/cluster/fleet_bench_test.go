package cluster

import (
	"testing"

	"repro/internal/simtime"
)

// BenchmarkShardTick runs the bench's fleet-10k configuration (10k
// nodes, 64 shards, one job per node) for 100 ms of simulated time per
// op: 100 barrier cycles of 64 shard ticks each. Building the root
// supervisor is outside the timed region.
func BenchmarkShardTick(b *testing.B) {
	cfg := FleetConfig{
		Nodes: 10000, Shards: 64, Jobs: 10000, CkptEvery: 64,
		Tick: simtime.Millisecond, DigestJitter: 500 * simtime.Microsecond,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg.Seed = int64(i + 1)
		r := MustNewRootSupervisor(cfg)
		b.StartTimer()
		r.Run(100 * simtime.Millisecond)
	}
}
