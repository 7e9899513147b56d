// Supervisor construction. The Supervisor grew field by field across the
// crash-consistency, autonomic, and incremental-shipping work, and every
// caller built it as a bare struct literal — so an invalid combination
// (zero interval, nil cluster, out-of-range control node) only surfaced
// mid-run, often as a hang. NewSupervisor is the only constructor: it
// moves that failure to construction time and resolves every default
// once, so the running Supervisor reads its embedded config directly.

package cluster

import (
	"errors"
	"fmt"

	"repro/internal/mechanism"
	"repro/internal/policy"
	"repro/internal/simos/kernel"
	"repro/internal/storage"
	"repro/internal/trace"
)

// SupervisorConfig configures NewSupervisor, and the Supervisor embeds
// it with every default resolved. (The name is not cluster.Config only
// because that is already the Cluster's own construction config.) Zero
// values mean "use the default" wherever a default exists; the required
// fields are C, MkMech, Prog, Iterations, and Policy.
type SupervisorConfig struct {
	// Required.
	C      *Cluster
	MkMech func() mechanism.Mechanism
	Prog   kernel.Program
	// Iterations bounds the workload.
	Iterations uint64
	// Policy is the job's checkpoint policy: the cadence strategy
	// (fixed / youngdaly) with its parameters, plus the delta content
	// policy (everything dirty, or live pages only). NewSupervisor builds
	// the policy engine from it (Supervisor.Policy, whose Estimator seeds
	// from Policy.PriorMTBF) and rejects it with policy's typed errors.
	Policy policy.Spec

	// UseLocalDisk makes the agents store checkpoints on the running
	// node's disk instead of the server — the E5 contrast. Not with
	// Replication, whose placement picks the disks.
	UseLocalDisk bool

	// LocalFallback makes an agent whose round failed against its target
	// write that round's full image to its node's disk, once — degraded
	// protection (the image dies with the node) beats none. The next
	// round tries the target again. Not with Incremental: a chain never
	// spans two targets.
	LocalFallback bool
	// UnsafeCommit disables atomic image commit (legacy in-place writes)
	// — the torn-image contrast for experiments and tests.
	UnsafeCommit bool

	// Incremental makes the node-local agents ship delta chains: each
	// incarnation arms a dirty-page tracker and publishes only the pages
	// written since the previous checkpoint, chained onto it. Requires a
	// mechanism implementing mechanism.DeltaRequester; others fall back
	// to full images, one agent.full_fallback count per capture.
	Incremental bool
	// RebaseEvery bounds the chain when Incremental is set: every Nth
	// checkpoint is a fresh full image (0 = default 8), bounding both
	// restore latency and the blast radius of a lost delta. The first
	// checkpoint of every incarnation is always full — chains never span
	// incarnations.
	RebaseEvery int
	// CompactAfter, when positive with Incremental, bounds the live chain
	// on the server: whenever an ack leaves more than CompactAfter deltas
	// behind the full head, the supervisor folds the chain into a fresh
	// full image under the leaf's own name (storage.CompactChain) and
	// retires the folded deltas. Unlike RebaseEvery — which bounds the
	// chain by making the agent ship a periodic full — compaction is
	// server-side: no capture traffic, and restore never replays more
	// than CompactAfter deltas. 0 disables.
	CompactAfter int
	// LazyRestore switches failover to restart-before-read
	// (see lazy.go): only the leaf image is read before the job resumes;
	// the rest of the chain materializes on demand and via a background
	// prefetcher. Requires a mechanism implementing
	// mechanism.LazyRestarter; others fall back to eager restarts, and
	// every failover whose lazy preconditions do not hold (no such
	// mechanism, no acked chain, an unreadable leaf) counts
	// restore.lazy_declined. The fully drained memory is byte-identical
	// to an eager restore.
	LazyRestore bool

	// Detector switches Run into autonomic mode: liveness verdicts come
	// from heartbeat-driven suspicion instead of the simulator's
	// fail-stop oracle, and status reads are RPCs from ControlNode.
	Detector FailureDetector
	// NoFencing disables the fenced target — the split-brain contrast.
	// Double commits by stale incarnations then succeed and are counted
	// under fence.double_commits.
	NoFencing bool
	// ControlNode is where the supervisor (and its status probes)
	// originate in autonomic mode; it should match the detector's
	// observer node. The job is never placed there.
	ControlNode int

	// Pipeline, when non-nil, makes the node-local agents capture into
	// memory and ship asynchronously through a bounded in-flight queue,
	// overlapping capture of epoch N+1 with the transfer of epoch N (see
	// pipeline.go).
	Pipeline *PipelineConfig
	// Replication, when non-nil, fans every checkpoint out to a placement
	// set (buddy mirrors or erasure shards — see replication.go) instead
	// of the server alone, and restores from the nearest surviving
	// replica.
	Replication *ReplicationConfig

	// OnEvent, when set, receives each orchestration event as it is
	// emitted — the chaos harness's invariant checkers observe the run
	// through it.
	OnEvent func(Event)
}

// NewSupervisor validates cfg, resolves its defaults, and returns a
// ready Supervisor. Misconfigurations that previously surfaced mid-run —
// or never, as a silent hang — are rejected here.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	switch {
	case cfg.C == nil:
		return nil, errors.New("cluster: NewSupervisor: nil Cluster")
	case cfg.MkMech == nil:
		return nil, errors.New("cluster: NewSupervisor: nil MkMech (mechanism factory)")
	case cfg.Prog == nil:
		return nil, errors.New("cluster: NewSupervisor: nil Prog (workload)")
	case cfg.Iterations == 0:
		return nil, errors.New("cluster: NewSupervisor: zero Iterations")
	case cfg.ControlNode < 0 || cfg.ControlNode >= cfg.C.NumNodes():
		return nil, fmt.Errorf("cluster: NewSupervisor: ControlNode %d outside [0,%d)",
			cfg.ControlNode, cfg.C.NumNodes())
	case cfg.RebaseEvery < 0:
		return nil, fmt.Errorf("cluster: NewSupervisor: negative RebaseEvery %d", cfg.RebaseEvery)
	case cfg.CompactAfter < 0:
		return nil, fmt.Errorf("cluster: NewSupervisor: negative CompactAfter %d", cfg.CompactAfter)
	case cfg.CompactAfter > 0 && !cfg.Incremental:
		return nil, errors.New("cluster: NewSupervisor: CompactAfter without Incremental (nothing to fold)")
	case cfg.LocalFallback && cfg.Incremental:
		return nil, errors.New("cluster: NewSupervisor: LocalFallback with Incremental (a chain never spans two targets)")
	case cfg.UseLocalDisk && cfg.Replication != nil:
		return nil, errors.New("cluster: NewSupervisor: UseLocalDisk with Replication (the placement picks the disks)")
	}
	if cfg.Pipeline != nil {
		if err := cfg.Pipeline.validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Replication != nil {
		// Every node except the control node can hold job state.
		if err := cfg.Replication.validate(cfg.C.NumNodes() - 1); err != nil {
			return nil, err
		}
	}

	s := &Supervisor{SupervisorConfig: cfg, Metrics: trace.NewMetricsWith(cfg.C.Counters)}
	// The policy engine validates the spec and needs the metrics bundle.
	eng, err := policy.NewEngine(cfg.Policy, s.Metrics)
	if err != nil {
		return nil, fmt.Errorf("cluster: NewSupervisor: %w", err)
	}
	s.Policy = eng
	s.det = cfg.Detector
	if s.det == nil {
		s.det = groundTruth{s}
	}
	s.fence = storage.NewFenceDomain("job", s.Counters())
	if s.RebaseEvery == 0 {
		s.RebaseEvery = 8
	}
	// A node provisioned to shard captures can shard replays.
	s.restoreWorkers = 1
	if s.Pipeline != nil {
		s.restoreWorkers = s.Pipeline.captureWorkers()
	}
	s.mechs = NewMechPool(s.C, func() mechanism.Mechanism {
		m := s.MkMech()
		if rp, ok := m.(mechanism.RestoreParallelizer); ok {
			rp.SetRestoreParallelism(s.restoreWorkers)
		}
		return m
	})
	return s, nil
}

// MustNewSupervisor is NewSupervisor for call sites whose config is
// statically known valid (examples, experiment tables); it panics on a
// config error instead of returning it.
func MustNewSupervisor(cfg SupervisorConfig) *Supervisor {
	s, err := NewSupervisor(cfg)
	if err != nil {
		panic(err)
	}
	return s
}
