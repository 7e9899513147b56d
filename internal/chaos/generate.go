package chaos

import (
	"math/rand"

	"repro/internal/simtime"
)

// Generation bounds. The generator is deliberately conservative where an
// unbounded draw would make a scenario unwinnable rather than merely
// hostile: the observer never fails, at most one worker dies permanently
// (and only when a third worker exists to fail over to), every partition
// heals, and all discrete faults land before the quiesce point so the
// bounded-fault liveness invariant is meaningful.
const (
	genMinNodes  = 3
	genWideNodes = 5 // four workers: erasure 2+1 keeps a spare, two shards keep a candidate each
	genMaxNodes  = 6
	genDrain     = 3 * simtime.Second // post-quiesce completion allowance
)

// featureRow is one combination of the feature knobs a generated scenario
// runs with. Compact and Liveness appear only on Incremental rows (there
// is no chain to fold or to thin otherwise).
type featureRow struct {
	Incremental, Compact, Liveness bool
	Pipeline                       int // capture workers; 0 = synchronous shipping
	Replication                    string
	Shards                         int
	Lazy                           bool
	Policy                         string
}

// featureRows is a pairwise covering array over the eight feature knobs:
// every valid pair of knob values (154 of them) occurs in at least one
// row. Twelve rows is the floor, since Pipeline × Replication alone has
// twelve pairs, so each of those pairs appears exactly once. Seed s runs
// row s mod len(featureRows), so any len(featureRows) consecutive seeds
// compose every pair of features under a fresh fault schedule.
var featureRows = []featureRow{
	// incr, compact, live, pipeline, repl, shards, lazy, policy
	{true, true, true, 0, "", 0, true, ""},
	{false, false, false, 0, "buddy", 2, true, "youngdaly"},
	{true, true, true, 0, "erasure", 2, false, ""},
	{true, true, true, 1, "", 2, false, "youngdaly"},
	{true, false, true, 1, "buddy", 2, false, "youngdaly"},
	{false, false, false, 1, "erasure", 0, true, ""},
	{false, false, false, 2, "", 2, true, ""},
	{true, true, true, 2, "buddy", 0, true, ""},
	{false, false, false, 2, "erasure", 0, false, "youngdaly"},
	{true, true, true, 4, "", 2, false, ""},
	{true, true, false, 4, "buddy", 0, true, "youngdaly"},
	{false, false, false, 4, "erasure", 0, false, "youngdaly"},
}

// rowOf returns the feature row seed runs.
func rowOf(seed int64) featureRow {
	n := int64(len(featureRows))
	return featureRows[(seed%n+n)%n]
}

// Generate derives a complete scenario from one master seed: the seed's
// feature row fixes which features run, and the seed's RNG draws the
// topology, workload, and fault schedule to fit it. Equal seeds yield
// equal specs; all randomness is confined to this function.
func Generate(seed int64) *Spec {
	row := rowOf(seed)
	erasure := row.Replication == "erasure"
	minNodes := genMinNodes
	if erasure || row.Shards > 0 {
		minNodes = genWideNodes
	}
	rng := rand.New(rand.NewSource(seed))
	sp := &Spec{
		Seed:        seed,
		Nodes:       minNodes + rng.Intn(genMaxNodes-minNodes+1),
		MiB:         1,
		WriteFrac:   0.1 + 0.3*rng.Float64(),
		WorkSeed:    int64(rng.Intn(1 << 16)),
		Iterations:  20 + uint64(rng.Intn(41)), // 20..60
		Cadence:     simtime.Duration(2+rng.Intn(4)) * simtime.Millisecond,
		Detector:    detectorNames[rng.Intn(len(detectorNames))],
		HBPeriod:    simtime.Duration(150+rng.Intn(151)) * simtime.Microsecond,
		Incremental: row.Incremental,
		Policy:      row.Policy,
		Liveness:    row.Liveness,
		Pipeline:    row.Pipeline,
		Replication: row.Replication,
		LazyRestore: row.Lazy,
		Shards:      row.Shards,
	}
	// A short rebase period and a low fold bound, so a sweep-sized run
	// crosses several rebase/GC cycles and folds several times.
	if row.Incremental {
		sp.RebaseEvery = 2 + rng.Intn(7) // 2..8
	}
	if row.Compact {
		sp.CompactAfter = 2 + rng.Intn(3) // 2..4
	}
	if erasure {
		sp.DataShards, sp.ParityShards = 2, 1
	}

	// Network faults: loss and duplication are per-message, jitter is the
	// uniform extra delay bound. Kept below the point where heartbeats
	// stop carrying information at all.
	if rng.Float64() < 0.7 {
		sp.Loss = 0.15 * rng.Float64()
	}
	if rng.Float64() < 0.3 {
		sp.Dup = 0.05 * rng.Float64()
	}
	if rng.Float64() < 0.7 {
		sp.Jitter = simtime.Duration(rng.Intn(300)) * simtime.Microsecond
	}

	// Storage faults: each knob independently present or absent.
	if rng.Float64() < 0.4 {
		sp.Storage.WriteFault = 0.15 * rng.Float64()
	}
	if rng.Float64() < 0.2 {
		sp.Storage.OutageFrac = 0.5 * rng.Float64()
	}
	if rng.Float64() < 0.3 {
		sp.Storage.SilentTear = 0.2 * rng.Float64()
	}
	if rng.Float64() < 0.3 {
		sp.Storage.PublishFault = 0.2 * rng.Float64()
	}

	// Discrete fault window: everything fires inside [2ms, quiesce).
	sp.Quiesce = simtime.Duration(20+rng.Intn(21)) * simtime.Millisecond
	window := int64(sp.Quiesce - 4*simtime.Millisecond)
	at := func() simtime.Duration {
		return 2*simtime.Millisecond + simtime.Duration(rng.Int63n(window))
	}

	// Node failures: up to 2 per scenario on workers, at most 1 on
	// erasure rows (a second holder dead at the audit cut would exceed
	// what 2+1 can mask — hostile, not checkable). One may be permanent
	// when at least three workers exist (two must survive for failover
	// to have somewhere to go).
	workers := sp.workers()
	permBudget := 0
	if workers >= 3 {
		permBudget = 1
	}
	maxFail := 2
	if erasure {
		maxFail = 1
	}
	nFail := rng.Intn(maxFail + 1)
	for i := 0; i < nFail; i++ {
		ev := FailEvent{
			At:     at(),
			Node:   rng.Intn(workers),
			Repair: simtime.Duration(1+rng.Intn(5)) * simtime.Millisecond,
		}
		if permBudget > 0 && rng.Float64() < 0.25 {
			ev.Permanent = true
			ev.Repair = 0
			permBudget--
		}
		sp.Failures = append(sp.Failures, ev)
	}

	// Partitions: up to 2, each healing within the fault window. The
	// first is biased toward isolating node 0 — where the job starts —
	// because a control-plane cut of the running node is the split-brain
	// scenario fencing exists for.
	nPart := rng.Intn(3)
	for i := 0; i < nPart; i++ {
		start := at()
		p := PartitionEvent{
			At:   start,
			Heal: start + simtime.Duration(3+rng.Intn(10))*simtime.Millisecond,
		}
		if i == 0 && rng.Float64() < 0.8 {
			p.Side = []int{0}
		} else {
			p.Side = []int{rng.Intn(workers)}
		}
		if p.Heal > sp.Quiesce {
			p.Heal = sp.Quiesce
		}
		sp.Partitions = append(sp.Partitions, p)
	}

	sp.Budget = sp.Quiesce + genDrain
	return sp
}
