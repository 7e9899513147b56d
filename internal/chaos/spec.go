// Package chaos is a FoundationDB-style deterministic simulation-testing
// harness over the cluster: a single int64 seed picks a row of a pairwise
// covering array over the feature knobs (delta chains, compaction,
// liveness, pipelining, replication, sharded detection, lazy restore,
// cadence policy) and drives a generator that composes a random
// topology, workload, and fault schedule around it (storage faults,
// network loss/jitter/duplication/partitions, transient and permanent
// node failures, detector choice); an executor
// runs the autonomic supervisor over the scenario while a registry of
// invariant checkers observes every orchestration event. On a violation
// the harness re-runs the same seed to confirm determinism, then greedily
// shrinks the scenario to a minimal reproducer whose chaos.Replay line is
// a copy-pasteable regression test. Nothing here reads the wall clock or
// an unseeded RNG: a seed is a complete description of a run.
package chaos

import (
	"encoding/json"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/simtime"
)

// FailEvent schedules one node failure.
type FailEvent struct {
	// At is when the node goes down.
	At simtime.Duration `json:"at"`
	// Node is the victim (a worker; the observer never fails).
	Node int `json:"node"`
	// Permanent marks a machine replacement (no reboot, disk wiped when
	// it would come back); transient failures reboot after Repair.
	Permanent bool `json:"perm,omitempty"`
	// Repair is the reboot delay for transient failures.
	Repair simtime.Duration `json:"repair,omitempty"`
}

// PartitionEvent schedules one named network partition.
type PartitionEvent struct {
	// At opens the cut, Heal closes it.
	At   simtime.Duration `json:"at"`
	Heal simtime.Duration `json:"heal"`
	// Side is the node set cut off from the rest of the cluster.
	Side []int `json:"side"`
}

// StorageSpec tunes probabilistic storage fault injection (see
// storage.FaultPolicy for field semantics).
type StorageSpec struct {
	WriteFault   float64 `json:"write,omitempty"`
	OutageFrac   float64 `json:"outage,omitempty"`
	SilentTear   float64 `json:"tear,omitempty"`
	PublishFault float64 `json:"publish,omitempty"`
}

// Spec is one complete chaos scenario. It is what the generator emits,
// what the executor runs, what the shrinker minimizes, and what Replay
// parses — the JSON encoding is the exchange format for reproducers.
type Spec struct {
	// Seed is the master seed: cluster, kernel, and fault-policy RNGs all
	// derive from it, so equal specs produce byte-identical runs.
	Seed int64 `json:"seed"`
	// Nodes is the total machine count; the observer (control plane) is
	// always the highest-numbered node and the job starts on node 0.
	Nodes int `json:"nodes"`

	// Workload: a Sparse program of MiB with the given write fraction.
	MiB        int     `json:"mib"`
	WriteFrac  float64 `json:"wf"`
	WorkSeed   int64   `json:"wseed"`
	Iterations uint64  `json:"iters"`

	// Checkpoint policy. Cadence is the base checkpoint interval (the
	// JSON key stays "interval" so replay lines predating the policy
	// engine parse unchanged). Incremental ships tracker-driven delta
	// chains with a full rebase every RebaseEvery checkpoints; absent
	// (the zero value, and the default for replay lines predating
	// chains) every checkpoint is a full image.
	Cadence     simtime.Duration `json:"interval"`
	Incremental bool             `json:"incr,omitempty"`
	RebaseEvery int              `json:"rebase,omitempty"`

	// Policy selects the cadence strategy fed to the policy engine:
	// "" or "fixed" checkpoints every Cadence; "youngdaly" recomputes
	// the Young/Daly optimum from the online MTBF estimate and measured
	// capture cost, and the work-lost checker bounds it against a
	// fixed-cadence twin run.
	Policy string `json:"policy,omitempty"`
	// Liveness switches delta content to live pages only (Incremental
	// seeds only): pages overwritten before ever being read are withheld
	// from the chains. False is the default for replay lines predating
	// liveness tracking; the digest checker then proves live-content
	// restores remain byte-identical to the fault-free oracle.
	Liveness bool `json:"live,omitempty"`

	// Detector is one of "timeout-1ms", "timeout-2ms", "timeout-3ms",
	// "phi-4", "phi-8", "phi-12"; HBPeriod is the heartbeat period.
	Detector string           `json:"detector"`
	HBPeriod simtime.Duration `json:"hb"`

	// Network faults.
	Loss   float64          `json:"loss,omitempty"`
	Dup    float64          `json:"dup,omitempty"`
	Jitter simtime.Duration `json:"jitter,omitempty"`

	// Storage faults.
	Storage StorageSpec `json:"storage,omitempty"`

	// Fault schedule. All discrete faults land before Quiesce; the
	// liveness invariant demands completion within Budget of start.
	Failures   []FailEvent      `json:"failures,omitempty"`
	Partitions []PartitionEvent `json:"partitions,omitempty"`
	Quiesce    simtime.Duration `json:"quiesce"`
	Budget     simtime.Duration `json:"budget"`

	// NoFencing disables epoch fencing — the deliberately-broken-build
	// knob the double-commit checker must catch.
	NoFencing bool `json:"nofence,omitempty"`

	// Pipeline, when positive, runs the agents' pipelined shipping path
	// with that many capture workers (fixed small values — 1, 2, 4 — so
	// runs never depend on the host's core count). Zero keeps the
	// synchronous path, and the default for replay lines predating the
	// pipeline.
	Pipeline int `json:"pipeline,omitempty"`

	// CompactAfter, when positive (Incremental seeds only), makes the
	// supervisor fold chains longer than that many deltas into a fresh
	// full image on the server and retire the folded deltas — the
	// storage-side chain bound the chain-restorable checker exercises.
	// Zero disables, and is the default for replay lines predating
	// compaction.
	CompactAfter int `json:"compact,omitempty"`

	// Replication selects checkpoint replica placement: "buddy" mirrors
	// every image to the owner's disk, a buddy node's disk, and the
	// server; "erasure" cuts it into DataShards+ParityShards shards
	// across node-local disks (the server holds nothing). Empty keeps
	// the server-only path, and is the default for replay lines
	// predating replication. The repl-durability and repl-converged
	// checkers activate only on replicated seeds.
	Replication string `json:"repl,omitempty"`
	// DataShards/ParityShards is the erasure geometry ("erasure" seeds
	// only; zero uses the cluster defaults of 2+1).
	DataShards   int `json:"rs_k,omitempty"`
	ParityShards int `json:"rs_m,omitempty"`

	// LazyRestore switches failover to the restart-before-read path:
	// only the leaf image is read before the job resumes, the rest
	// materializes on demand. False keeps eager restores, and is the
	// default for replay lines predating lazy restore. The digest
	// checker enforces that the completed run's fingerprint matches the
	// fault-free oracle, so a lazy seed proves byte-equivalence with
	// eager restore at every failover.
	LazyRestore bool `json:"lazy,omitempty"`

	// Shards, when >= 2, routes failure detection through the sharded
	// digest path: workers heartbeat to per-shard aggregator nodes and
	// the observer ingests one digest per shard per period
	// (detector.ShardMonitor), with observer-driven aggregator failover,
	// instead of one heartbeat per worker per period. Zero keeps the
	// flat Monitor, and is the default for replay lines predating
	// digests.
	Shards int `json:"shards,omitempty"`
}

// pipelineConfig translates the Pipeline knob into the supervisor's
// config (nil = synchronous shipping).
func (sp *Spec) pipelineConfig() *cluster.PipelineConfig {
	if sp.Pipeline <= 0 {
		return nil
	}
	return &cluster.PipelineConfig{CaptureWorkers: sp.Pipeline}
}

// replicationConfig translates the Replication knobs into the
// supervisor's placement policy (nil = server-only shipping).
func (sp *Spec) replicationConfig() *cluster.ReplicationConfig {
	switch sp.Replication {
	case "buddy":
		return &cluster.ReplicationConfig{Mode: cluster.ReplBuddy}
	case "erasure":
		return &cluster.ReplicationConfig{
			Mode: cluster.ReplErasure, DataShards: sp.DataShards, ParityShards: sp.ParityShards,
		}
	}
	return nil
}

// policySpec translates the Cadence/Policy/Liveness knobs into the
// supervisor's policy.Spec.
func (sp *Spec) policySpec() policy.Spec {
	pol := policy.Fixed(sp.Cadence)
	if sp.Policy == "youngdaly" {
		pol = policy.YoungDaly(sp.Cadence)
	}
	if sp.Liveness {
		pol.Content = policy.ContentLive
	}
	return pol
}

// observer returns the control-plane node index.
func (sp *Spec) observer() int { return sp.Nodes - 1 }

// workers returns the worker count (every node but the observer).
func (sp *Spec) workers() int { return sp.Nodes - 1 }

// Size is the shrinker's cost metric: fewer faults, fewer nodes, a
// shorter workload, and a tighter schedule all count as smaller.
func (sp *Spec) Size() int {
	n := sp.Nodes + len(sp.Failures) + len(sp.Partitions) + int(sp.Iterations) +
		int(sp.Quiesce/simtime.Millisecond)
	if sp.Loss > 0 || sp.Dup > 0 || sp.Jitter > 0 {
		n++
	}
	if sp.Storage != (StorageSpec{}) {
		n++
	}
	if sp.Replication != "" {
		n++
	}
	if sp.Shards != 0 {
		n++
	}
	if sp.LazyRestore {
		n++
	}
	if sp.Policy != "" && sp.Policy != "fixed" {
		n++
	}
	if sp.Liveness {
		n++
	}
	return n
}

// Clone returns a deep copy of the spec.
func (sp *Spec) Clone() *Spec {
	cp := *sp
	cp.Failures = append([]FailEvent(nil), sp.Failures...)
	cp.Partitions = make([]PartitionEvent, len(sp.Partitions))
	for i, p := range sp.Partitions {
		cp.Partitions[i] = p
		cp.Partitions[i].Side = append([]int(nil), p.Side...)
	}
	return &cp
}

// MarshalLine renders the spec as one-line JSON (the Replay argument).
func (sp *Spec) MarshalLine() string {
	b, err := json.Marshal(sp)
	if err != nil {
		// Spec holds only scalars and slices of scalars; Marshal cannot
		// fail on it short of memory corruption.
		panic(err)
	}
	return string(b)
}

// ParseSpec parses a MarshalLine encoding.
func ParseSpec(line string) (*Spec, error) {
	sp := &Spec{}
	if err := json.Unmarshal([]byte(line), sp); err != nil {
		return nil, fmt.Errorf("chaos: bad spec: %w", err)
	}
	if err := sp.validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

// validate rejects specs the executor cannot run safely.
func (sp *Spec) validate() error {
	if sp.Nodes < 3 {
		return fmt.Errorf("chaos: need >= 3 nodes (1 observer + 2 workers), got %d", sp.Nodes)
	}
	if sp.Iterations == 0 || sp.MiB <= 0 {
		return fmt.Errorf("chaos: empty workload")
	}
	if sp.Cadence <= 0 || sp.HBPeriod <= 0 {
		return fmt.Errorf("chaos: interval and heartbeat period must be positive")
	}
	switch sp.Policy {
	case "", "fixed", "youngdaly":
	default:
		return fmt.Errorf("chaos: unknown cadence policy %q", sp.Policy)
	}
	if sp.RebaseEvery < 0 || sp.CompactAfter < 0 || sp.Pipeline < 0 {
		return fmt.Errorf("chaos: negative rebase %d, compact %d or pipeline %d",
			sp.RebaseEvery, sp.CompactAfter, sp.Pipeline)
	}
	if sp.Liveness && !sp.Incremental {
		return fmt.Errorf("chaos: liveness content needs incremental chains")
	}
	if sp.CompactAfter > 0 && !sp.Incremental {
		return fmt.Errorf("chaos: compaction needs incremental chains")
	}
	if sp.Budget <= sp.Quiesce {
		return fmt.Errorf("chaos: budget %v must exceed quiesce %v", sp.Budget, sp.Quiesce)
	}
	for _, f := range sp.Failures {
		if f.Node < 0 || f.Node >= sp.workers() {
			return fmt.Errorf("chaos: failure targets node %d outside workers [0,%d)", f.Node, sp.workers())
		}
	}
	for _, p := range sp.Partitions {
		if p.Heal <= p.At {
			return fmt.Errorf("chaos: partition at %v never heals", p.At)
		}
		for _, n := range p.Side {
			if n < 0 || n >= sp.workers() {
				return fmt.Errorf("chaos: partition side includes node %d outside workers [0,%d)", n, sp.workers())
			}
		}
	}
	switch sp.Replication {
	case "", "buddy", "erasure":
	default:
		return fmt.Errorf("chaos: unknown replication mode %q", sp.Replication)
	}
	if sp.Replication != "erasure" && (sp.DataShards != 0 || sp.ParityShards != 0) {
		return fmt.Errorf("chaos: shard geometry %d+%d needs replication mode %q", sp.DataShards, sp.ParityShards, "erasure")
	}
	if sp.Replication == "erasure" {
		k, m := sp.DataShards, sp.ParityShards
		if k == 0 {
			k = 2
		}
		if m == 0 {
			m = 1
		}
		if k+m > sp.workers() {
			return fmt.Errorf("chaos: erasure geometry %d+%d needs %d workers, have %d", k, m, k+m, sp.workers())
		}
	}
	if sp.Shards != 0 && (sp.Shards < 2 || sp.Shards > sp.workers()) {
		return fmt.Errorf("chaos: detector shards %d outside [2,%d]", sp.Shards, sp.workers())
	}
	return nil
}

// ReplayLine renders the Go call that reproduces this scenario — the
// line the harness prints for a shrunken violation, pasteable into a
// regression test.
func (sp *Spec) ReplayLine() string {
	return fmt.Sprintf("chaos.Replay(%d, %q)", sp.Seed, sp.MarshalLine())
}

// detectorNames is the generator's detector palette.
var detectorNames = []string{"timeout-1ms", "timeout-2ms", "timeout-3ms", "phi-4", "phi-8", "phi-12"}
