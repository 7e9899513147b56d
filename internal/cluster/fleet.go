// Fleet-scale control plane: the event-loop-per-shard architecture that
// takes the supervisor from the 3–6 node chaos topologies to 10,000
// simulated nodes. The full cluster simulation (kernels, processes,
// page-accurate checkpoints) is the wrong substrate at that scale — its
// fidelity is per-node machinery the control plane never looks at. The
// fleet model keeps exactly what the orchestration layer observes:
// ground-truth node liveness (for accounting), per-shard heartbeat
// digests over a lossy delaying network (the only failure signal on the
// decision path), per-shard fence domains over real storage targets
// (stale writers really are rejected by the epoch check), and the
// orchestration event log. A RootSupervisor owns placement across N
// shard supervisors; each shard runs its own event loop goroutine,
// detector, RNG, counters, and fence domain, synchronized only at a
// per-tick barrier — so the concurrency is real (the -race suite runs
// cross-shard migrations and simultaneous failovers) while runs stay
// deterministic: shard state is shard-local during a tick, and the root
// merges shard output in fixed shard order at the barrier.
//
// Nothing in this file reads the wall clock; orchestration throughput
// in real time is measured by the scenario harness around Run.

package cluster

import (
	"fmt"
	"math/rand"

	"repro/internal/simtime"
)

// FleetConfig sizes a fleet run.
type FleetConfig struct {
	// Nodes is the simulated machine count; Shards how many shard
	// supervisors the root splits them into (contiguous ranges).
	Nodes  int
	Shards int
	// Seed drives every RNG in the run (per-shard RNGs derive from it).
	Seed int64
	// Tick is the digest tick: each shard aggregates its members'
	// heartbeats into ONE digest per tick (default 1ms). This is also
	// the only recurring timer a shard arms — member heartbeats
	// amortize into the digest build instead of one timer per node.
	Tick simtime.Duration
	// DetectAfter is the per-member timeout bound of each shard's
	// failure detector (default 4*Tick).
	DetectAfter simtime.Duration
	// Jobs is the number of concurrently supervised jobs (default
	// Nodes/10, min 1), spread round-robin across shards.
	Jobs int
	// CkptEvery is the per-job checkpoint cadence in ticks (default 8),
	// staggered by job id so acks spread across ticks.
	CkptEvery int

	// Control-plane network faults, applied to the digest path: HBLoss
	// drops a member's bit from a tick's digest, DigestLoss drops the
	// whole digest, DigestDup delivers it twice, DigestJitter adds a
	// uniform extra delivery delay.
	HBLoss       float64
	DigestLoss   float64
	DigestDup    float64
	DigestJitter simtime.Duration

	// NoFencing disables epoch fencing for superseded incarnations —
	// the deliberately-broken knob that must make the double-commit
	// invariant fire in the scenario harness.
	NoFencing bool

	// LazyRestore marks every failover restore as restart-before-read:
	// the EvRestore event carries a " lazy" object suffix and the shard
	// counts fleet.lazy_restores, so scenario criteria can assert the
	// lazy path was exercised fleet-wide.
	LazyRestore bool
}

// withDefaults fills zero fields.
func (cfg FleetConfig) withDefaults() FleetConfig {
	if cfg.Tick <= 0 {
		cfg.Tick = simtime.Millisecond
	}
	if cfg.DetectAfter <= 0 {
		cfg.DetectAfter = 4 * cfg.Tick
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = cfg.Nodes / 10
		if cfg.Jobs < 1 {
			cfg.Jobs = 1
		}
	}
	if cfg.CkptEvery <= 0 {
		cfg.CkptEvery = 8
	}
	return cfg
}

// fleetEventBatch bounds one orchestration-event flush from a shard to
// the root: a larger flush splits into batches of at most this many.
const fleetEventBatch = 256

// validate rejects configurations the fleet cannot run.
func (cfg FleetConfig) validate() error {
	if cfg.Nodes < 2 {
		return fmt.Errorf("cluster: fleet needs >= 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.Shards < 1 || cfg.Shards > cfg.Nodes {
		return fmt.Errorf("cluster: fleet shards %d outside [1,%d]", cfg.Shards, cfg.Nodes)
	}
	if cfg.Jobs > cfg.Nodes {
		return fmt.Errorf("cluster: %d jobs exceed %d nodes", cfg.Jobs, cfg.Nodes)
	}
	if cfg.HBLoss < 0 || cfg.HBLoss >= 1 || cfg.DigestLoss < 0 || cfg.DigestLoss >= 1 || cfg.DigestDup < 0 || cfg.DigestDup >= 1 {
		return fmt.Errorf("cluster: fleet fault probabilities must be in [0,1)")
	}
	return nil
}

// fleetTimer is one armed recurring control-plane timer. The registry
// exists so tests can pin the timer budget: the naive design arms one
// heartbeat timer per node (10k nodes = 10k timers); the digest design
// arms exactly one per shard, independent of member count.
type fleetTimer struct {
	owner  string
	period simtime.Duration
	next   simtime.Time
}

// fleetFault is one scheduled ground-truth node failure.
type fleetFault struct {
	at     simtime.Time
	node   int
	perm   bool
	repair simtime.Duration
}

// fleetReboot is one pending ground-truth reboot.
type fleetReboot struct {
	at   simtime.Time
	node int
}

// Fleet is the ground-truth substrate of a fleet run: node liveness,
// the fault schedule, and the timer registry. Only the root mutates it,
// and only at the tick barrier; shard loops read it for node-local
// gating (a dead machine emits no heartbeat and runs no writer) and for
// metrics accounting — never for placement or suspicion decisions.
type Fleet struct {
	cfg     FleetConfig
	now     simtime.Time
	alive   []bool
	downAt  []simtime.Time
	perm    []bool
	rng     *rand.Rand
	timers  []*fleetTimer
	faults  []fleetFault
	reboots []fleetReboot
}

func newFleet(cfg FleetConfig) *Fleet {
	f := &Fleet{
		cfg:    cfg,
		alive:  make([]bool, cfg.Nodes),
		downAt: make([]simtime.Time, cfg.Nodes),
		perm:   make([]bool, cfg.Nodes),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := range f.alive {
		f.alive[i] = true
	}
	return f
}

// Now returns the fleet's simulated time.
func (f *Fleet) Now() simtime.Time { return f.now }

// NodeAlive reports ground-truth liveness (accounting and node-local
// gating only).
func (f *Fleet) NodeAlive(i int) bool { return f.alive[i] }

// registerTimer records one armed recurring timer.
func (f *Fleet) registerTimer(owner string, period simtime.Duration) *fleetTimer {
	t := &fleetTimer{owner: owner, period: period, next: f.now.Add(period)}
	f.timers = append(f.timers, t)
	return t
}

// Timers returns how many recurring control-plane timers are armed.
// The digest architecture keeps this at one per shard regardless of
// node count — the regression tests pin it.
func (f *Fleet) Timers() int { return len(f.timers) }

// FleetStats is the machine-readable outcome of one fleet run.
type FleetStats struct {
	Nodes  int `json:"nodes"`
	Shards int `json:"shards"`
	Jobs   int `json:"jobs"`
	Ticks  int `json:"ticks"`

	SimMillis float64 `json:"sim_ms"`

	// Orchestration event flow: total events flushed, flush batches,
	// and the largest single batch (bounded by fleetEventBatch).
	Events   int `json:"events"`
	Batches  int `json:"batches"`
	MaxBatch int `json:"max_batch"`

	Checkpoints int64 `json:"checkpoints"`
	Failovers   int64 `json:"failovers"`
	Migrations  int64 `json:"migrations"`
	Unplaced    int64 `json:"unplaced"`

	// Detection and failover latency in simulated milliseconds, over
	// ground-truth real failures only, each with its sample count.
	Detections  int     `json:"detections"`
	DetectP50   float64 `json:"detect_p50_ms"`
	DetectP99   float64 `json:"detect_p99_ms"`
	FailoverN   int     `json:"failover_n"`
	FailoverP50 float64 `json:"failover_p50_ms"`
	FailoverP99 float64 `json:"failover_p99_ms"`

	FalsePositives int64 `json:"false_positives"`
	SelfFences     int64 `json:"self_fences"`
	DoubleCommits  int64 `json:"double_commits"`

	// Timers is the armed recurring-timer count (one per shard).
	Timers int `json:"timers"`
}

// String renders the headline numbers.
func (s FleetStats) String() string {
	return fmt.Sprintf(
		"fleet %d nodes / %d shards / %d jobs: %d events in %d batches over %.0f sim-ms; "+
			"ckpts=%d failovers=%d migrations=%d; detect p50/p99 %.2f/%.2f ms; timers=%d",
		s.Nodes, s.Shards, s.Jobs, s.Events, s.Batches, s.SimMillis,
		s.Checkpoints, s.Failovers, s.Migrations, s.DetectP50, s.DetectP99, s.Timers)
}
