// The named scenario catalog. Every entry is fully declarative — fixed
// seed, fixed fault schedule — so a run reproduces bit-for-bit from the
// name alone; its bounds are the scenario rows of experiments.Gates.
// The fleet-1k / fleet-10k pair is also the substrate of the E18 scale
// benchmark, which gates the 1k→10k detection-latency ratio.

package scenario

import (
	"repro/internal/cluster"
	"repro/internal/simtime"
)

const ms = simtime.Millisecond

// staggeredFaults fails `count` nodes spread across the node range and
// across a windowMs-wide schedule starting at 25ms (the window must end
// comfortably before the scenario's duration so every fault is applied
// and detected): even picks are permanent, odd ones repair after 40ms.
func staggeredFaults(nodes, count, windowMs int) []Fault {
	fs := make([]Fault, 0, count)
	for i := 0; i < count; i++ {
		f := Fault{
			At:   simtime.Duration(25+i*windowMs/count) * ms,
			Node: (i*nodes)/count + 1,
			Perm: i%2 == 0,
		}
		if !f.Perm {
			f.Repair = 40 * ms
		}
		fs = append(fs, f)
	}
	return fs
}

// Catalog returns every named scenario.
func Catalog() []Scenario {
	return []Scenario{
		{
			// Small clean-network smoke: tight latency ceilings, every
			// bound engaged.
			Name: "smoke-64",
			Config: cluster.FleetConfig{
				Nodes: 64, Shards: 8, Jobs: 16, Seed: 101,
			},
			Faults: []Fault{
				{At: 20 * ms, Node: 5, Perm: true},
				{At: 40 * ms, Node: 33, Perm: true},
				{At: 60 * ms, Node: 50, Repair: 30 * ms},
			},
			Duration: 100 * ms,
		},
		{
			// The digest path through a hostile control-plane network:
			// heartbeat loss, whole-digest loss, duplication, jitter.
			Name: "faulty-net-256",
			Config: cluster.FleetConfig{
				Nodes: 256, Shards: 16, Jobs: 64, Seed: 202,
				HBLoss: 0.05, DigestLoss: 0.05, DigestDup: 0.05,
				DigestJitter: 1 * ms,
			},
			Faults:   staggeredFaults(256, 4, 100),
			Duration: 150 * ms,
		},
		{
			// Kill an entire shard: its jobs must evacuate across the
			// shard boundary with their checkpoints.
			Name: "evacuate-128",
			Config: cluster.FleetConfig{
				Nodes: 128, Shards: 16, Jobs: 32, Seed: 303,
			},
			Faults: []Fault{
				{At: 30 * ms, Node: 24, Perm: true},
				{At: 30 * ms, Node: 25, Perm: true},
				{At: 30 * ms, Node: 26, Perm: true},
				{At: 30 * ms, Node: 27, Perm: true},
				{At: 30 * ms, Node: 28, Perm: true},
				{At: 30 * ms, Node: 29, Perm: true},
				{At: 30 * ms, Node: 30, Perm: true},
				{At: 30 * ms, Node: 31, Perm: true},
			},
			Duration: 150 * ms,
		},
		{
			// 1k nodes: the smaller anchor of the scale pair.
			Name: "fleet-1k",
			Config: cluster.FleetConfig{
				Nodes: 1000, Shards: 32, Jobs: 100, Seed: 1001,
				DigestJitter: 500 * simtime.Microsecond,
			},
			Faults:   staggeredFaults(1000, 10, 250),
			Duration: 300 * ms,
		},
		{
			// 10k nodes: the headline scale target. Same tick, same
			// detector bound as fleet-1k — the architecture's claim is
			// that detection latency does not grow with fleet size, and
			// E18 gates the 1k→10k ratio.
			Name: "fleet-10k",
			Config: cluster.FleetConfig{
				Nodes: 10000, Shards: 64, Jobs: 1000, Seed: 10001,
				DigestJitter: 500 * simtime.Microsecond,
			},
			Faults:   staggeredFaults(10000, 20, 250),
			Duration: 300 * ms,
		},
		{
			// Restart-before-read failover across a mid-sized fleet: every
			// restore takes the lazy path, and its lazy-restore floor
			// proves the path fired under the same fault pressure as
			// smoke-64.
			Name: "lazy-restore-128",
			Config: cluster.FleetConfig{
				Nodes: 128, Shards: 16, Jobs: 32, Seed: 404,
				LazyRestore: true,
			},
			Faults:   staggeredFaults(128, 6, 100),
			Duration: 150 * ms,
		},
		{
			// Broken-build contrast: fencing disabled under a network
			// lossy enough to force false suspicions. Its gate demands
			// that the double-commit invariant FIRES — this is the
			// scenario that proves the suite can catch a broken build.
			Name: "broken-fencing-8",
			Config: cluster.FleetConfig{
				Nodes: 8, Shards: 2, Jobs: 8, Seed: 9,
				DigestLoss: 0.45, DetectAfter: 2 * ms,
				NoFencing: true,
			},
			Duration: 300 * ms,
		},
	}
}

// Find returns the named scenario.
func Find(name string) (Scenario, bool) {
	for _, sc := range Catalog() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}
