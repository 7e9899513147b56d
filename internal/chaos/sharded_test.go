package chaos

import (
	"strings"
	"testing"

	"repro/internal/simtime"
)

// TestShardedAggregatorDeath kills a shard aggregator under the digest
// path: the observer must probe the dark shard back to life, the job
// must still complete, and no invariant may fire.
func TestShardedAggregatorDeath(t *testing.T) {
	sp := &Spec{
		Seed: 7, Nodes: 7, MiB: 1, WriteFrac: 0.2, WorkSeed: 7, Iterations: 30,
		Cadence:  3 * simtime.Millisecond,
		Detector: "timeout-2ms", HBPeriod: 200 * simtime.Microsecond,
		// Node 3 aggregates shard 1 ({3,4,5}); node 0 runs the job in
		// shard 0 ({0,1,2}). Kill the shard-1 aggregator permanently: the
		// whole shard goes dark and only observer probing can reassign it.
		Failures: []FailEvent{{At: 8 * simtime.Millisecond, Node: 3, Permanent: true}},
		Quiesce:  25 * simtime.Millisecond,
		Budget:   25*simtime.Millisecond + genDrain,
		Shards:   2,
	}
	if err := sp.validate(); err != nil {
		t.Fatal(err)
	}
	r := Run(sp)
	if !r.Completed {
		t.Fatalf("job did not complete: %s", r.Summary())
	}
	for _, v := range r.Violations {
		t.Errorf("violation: %s", v)
	}
	if !strings.Contains(r.Counters, "det.digest_sent") {
		t.Fatalf("digest path never engaged:\n%s", r.Counters)
	}
	// Reassignment may come through either route: agg_failover when the
	// observer still sees an unsuspected candidate, agg_probe when the
	// dead aggregator darkened the whole shard first.
	if !strings.Contains(r.Counters, "det.agg_failover") && !strings.Contains(r.Counters, "det.agg_probe") {
		t.Fatalf("aggregator death never triggered reassignment:\n%s", r.Counters)
	}
}

// TestShardedSpecValidation rejects shard counts the executor cannot
// run, and the shrinker's node-drop candidate keeps a spec valid by
// clamping the shard count to the shrunken width.
func TestShardedSpecValidation(t *testing.T) {
	base := Generate(1)
	for name, shards := range map[string]int{"one": 1, "negative": -2, "too-wide": base.workers() + 1} {
		sp := base.Clone()
		sp.Shards = shards
		if sp.validate() == nil {
			t.Errorf("%s: validate accepted shards=%d with %d workers", name, shards, sp.workers())
		}
	}
	sp := base.Clone()
	sp.Nodes = 5
	sp.Failures, sp.Partitions = nil, nil
	sp.Shards = sp.workers() // 4 shards over 4 workers: valid but tight
	if err := sp.validate(); err != nil {
		t.Fatalf("full-width shards rejected: %v", err)
	}
	c := dropTopWorker(sp)
	if c == nil {
		t.Fatal("dropTopWorker refused an unreferenced worker")
	}
	if err := c.validate(); err != nil {
		t.Fatalf("dropTopWorker left an invalid spec: %v", err)
	}
	if c.Shards != c.workers() {
		t.Fatalf("dropTopWorker kept shards=%d over %d workers", c.Shards, c.workers())
	}
}
