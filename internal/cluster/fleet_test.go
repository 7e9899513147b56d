package cluster

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/simtime"
)

func fleetCfg(nodes, shards, jobs int, seed int64) FleetConfig {
	return FleetConfig{
		Nodes:     nodes,
		Shards:    shards,
		Jobs:      jobs,
		Seed:      seed,
		CkptEvery: 2,
	}
}

// The timer-amortization regression test: the digest architecture arms
// exactly one recurring timer per shard, independent of node count. The
// naive per-node heartbeat design would arm Nodes timers — 10k timers at
// 10k nodes — and this test pins that it cannot come back.
func TestFleetTimerBudgetIsPerShard(t *testing.T) {
	for _, tc := range []struct{ nodes, shards int }{
		{100, 4},
		{1000, 8},
		{10000, 64},
	} {
		r := MustNewRootSupervisor(fleetCfg(tc.nodes, tc.shards, tc.nodes/100+1, 7))
		if got := r.Fleet().Timers(); got != tc.shards {
			t.Fatalf("%d nodes / %d shards armed %d timers, want exactly %d (one per shard)",
				tc.nodes, tc.shards, got, tc.shards)
		}
		// Running must not arm any further recurring timers.
		r.Run(20 * simtime.Millisecond)
		if got := r.Fleet().Timers(); got != tc.shards {
			t.Fatalf("after run: %d timers, want %d", got, tc.shards)
		}
	}
}

// Same seed, same config → byte-identical event log and counters, even
// though shard loops run on real parallel goroutines.
func TestFleetDeterministicAcrossRuns(t *testing.T) {
	run := func() (string, string) {
		cfg := fleetCfg(64, 8, 16, 42)
		cfg.HBLoss = 0.02
		cfg.DigestLoss = 0.05
		cfg.DigestDup = 0.05
		cfg.DigestJitter = 2 * simtime.Millisecond
		r := MustNewRootSupervisor(cfg)
		if err := r.FailAt(10*simtime.Millisecond, 3, true, 0); err != nil {
			t.Fatal(err)
		}
		if err := r.FailAt(25*simtime.Millisecond, 40, false, 30*simtime.Millisecond); err != nil {
			t.Fatal(err)
		}
		r.Run(200 * simtime.Millisecond)
		return FormatEvents(r.Events), r.Counters().String()
	}
	ev1, ctr1 := run()
	ev2, ctr2 := run()
	if ev1 != ev2 {
		t.Fatalf("event logs diverge across identical runs:\n--- run1 ---\n%s\n--- run2 ---\n%s", ev1, ev2)
	}
	if ctr1 != ctr2 {
		t.Fatalf("counters diverge across identical runs:\n--- run1 ---\n%s\n--- run2 ---\n%s", ctr1, ctr2)
	}
}

// A permanent node failure is detected via the digest path, the job
// fails over inside the shard, and checkpointing resumes on the new
// placement.
func TestFleetDetectsAndFailsOver(t *testing.T) {
	cfg := fleetCfg(8, 2, 4, 1)
	r := MustNewRootSupervisor(cfg)
	if err := r.FailAt(10*simtime.Millisecond, 0, true, 0); err != nil {
		t.Fatal(err)
	}
	st := r.Run(100 * simtime.Millisecond)
	if st.Detections != 1 {
		t.Fatalf("detections = %d, want 1\n%s", st.Detections, r.Counters())
	}
	if st.Failovers < 1 {
		t.Fatalf("failovers = %d, want >= 1", st.Failovers)
	}
	// Timeout bound is 4 ticks (4ms default) plus delivery delay; the
	// detection latency must sit near it, not at some timer-sweep
	// multiple.
	if st.DetectP99 <= 0 || st.DetectP99 > 10 {
		t.Fatalf("detect p99 = %.2f ms, want within (0, 10]", st.DetectP99)
	}
	if st.Checkpoints == 0 {
		t.Fatal("no checkpoints acked")
	}
	if st.DoubleCommits != 0 {
		t.Fatalf("double commits = %d with fencing on", st.DoubleCommits)
	}
	log := FormatEvents(r.Events)
	for _, want := range []string{"failover", "admit"} {
		if !strings.Contains(log, want) {
			t.Fatalf("event log missing %q:\n%s", want, log)
		}
	}
}

// Event flushes from shards to the root are bounded by fleetEventBatch:
// a run's flushes stay within it, and a flush larger than one batch
// splits, in order.
func TestFleetEventBatchesBounded(t *testing.T) {
	r := MustNewRootSupervisor(fleetCfg(32, 4, 32, 3))
	var fromCallback int
	r.OnBatch = func(b []Event) {
		if len(b) > fleetEventBatch {
			t.Fatalf("OnBatch saw %d events, bound is %d", len(b), fleetEventBatch)
		}
		fromCallback += len(b)
	}
	st := r.Run(50 * simtime.Millisecond)
	if st.MaxBatch > fleetEventBatch {
		t.Fatalf("max batch %d exceeds bound %d", st.MaxBatch, fleetEventBatch)
	}
	if st.Events == 0 || fromCallback != st.Events {
		t.Fatalf("flushed %d events but callback saw %d", st.Events, fromCallback)
	}

	// One burst of 2.5 batches: three flushes, the last one partial.
	burst := make([]Event, 2*fleetEventBatch+fleetEventBatch/2)
	for i := range burst {
		burst[i] = Event{Kind: EvAck, Node: i}
	}
	var sizes []int
	r.OnBatch = func(b []Event) { sizes = append(sizes, len(b)) }
	logged, batches := len(r.Events), r.batches
	r.flush(burst)
	if want := []int{fleetEventBatch, fleetEventBatch, fleetEventBatch / 2}; !slices.Equal(sizes, want) {
		t.Fatalf("burst of %d flushed as %v, want %v", len(burst), sizes, want)
	}
	if r.batches-batches != 3 || len(r.Events)-logged != len(burst) {
		t.Fatalf("burst added %d batches and %d events, want 3 and %d",
			r.batches-batches, len(r.Events)-logged, len(burst))
	}
	for i, ev := range r.Events[logged:] {
		if ev.Node != i {
			t.Fatalf("event %d of the burst logged out of order (node %d)", i, ev.Node)
		}
	}
}

// When every member of a shard is suspected, its jobs migrate to another
// shard: the newest checkpoint is carried across, the source chain is
// retired, and the job keeps checkpointing in the target's namespace.
func TestFleetCrossShardMigration(t *testing.T) {
	cfg := fleetCfg(4, 2, 2, 5)
	r := MustNewRootSupervisor(cfg)
	// Shard 0 owns nodes 0 and 1; kill both so job 0 has nowhere local.
	if err := r.FailAt(20*simtime.Millisecond, 0, true, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.FailAt(20*simtime.Millisecond, 1, true, 0); err != nil {
		t.Fatal(err)
	}
	st := r.Run(100 * simtime.Millisecond)
	if st.Migrations < 1 {
		t.Fatalf("migrations = %d, want >= 1\n%s", st.Migrations, FormatEvents(r.Events))
	}
	// The migrated job must have restored from a checkpoint copied into
	// shard 1's namespace, readable through the root's audit path.
	var restored string
	for _, e := range r.Events {
		if e.Kind == EvRestore && strings.HasPrefix(e.Object, "s001/") {
			restored = e.Object
		}
	}
	if restored == "" {
		t.Fatalf("no restore in target shard namespace:\n%s", FormatEvents(r.Events))
	}
	// The carried checkpoint lives in the target's store until the
	// target's own GC retires it behind newer checkpoints.
	if _, err := r.ReadObject(restored); err != nil {
		var retired bool
		for _, e := range r.Events {
			if e.Kind == EvRetire && e.Object == restored {
				retired = true
			}
		}
		if !retired {
			t.Fatalf("migrated checkpoint unreadable and never retired: %v", err)
		}
	}
	// Source-side chain objects must have been retired by the root.
	var retiredSrc bool
	for _, e := range r.Events {
		if e.Kind == EvRetire && strings.HasPrefix(e.Object, "s000/") {
			retiredSrc = true
		}
	}
	if !retiredSrc {
		t.Fatalf("source chain never retired:\n%s", FormatEvents(r.Events))
	}
}

// A transiently failed node is detected, failed over, and on reboot its
// heartbeats clear the suspicion again.
func TestFleetTransientFailureRecovers(t *testing.T) {
	cfg := fleetCfg(8, 2, 4, 11)
	r := MustNewRootSupervisor(cfg)
	if err := r.FailAt(10*simtime.Millisecond, 2, false, 20*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := r.Run(100 * simtime.Millisecond)
	if st.Detections != 1 {
		t.Fatalf("detections = %d, want 1", st.Detections)
	}
	c := r.Counters()
	if c.Get("fleet.reboots") != 1 {
		t.Fatalf("reboots = %d, want 1", c.Get("fleet.reboots"))
	}
	if c.Get("det.recoveries") < 1 {
		t.Fatalf("suspicion never cleared after reboot\n%s", c)
	}
}

// False suspicions create ghost writers: superseded incarnations that
// keep publishing. With fencing on they must self-fence (zero double
// commits); with the NoFencing knob the same run must produce the
// split-brain double commit the invariant suite exists to catch.
func TestFleetGhostWritersFenceOrDoubleCommit(t *testing.T) {
	base := fleetCfg(8, 2, 8, 9)
	base.DigestLoss = 0.45 // lossy enough to force false suspicions
	base.DetectAfter = 2 * simtime.Millisecond

	fenced := MustNewRootSupervisor(base)
	st := fenced.Run(300 * simtime.Millisecond)
	if st.FalsePositives == 0 {
		t.Skipf("seed produced no false positives; counters:\n%s", fenced.Counters())
	}
	if st.SelfFences == 0 {
		t.Fatalf("false positives (%d) but no ghost self-fenced\n%s", st.FalsePositives, fenced.Counters())
	}
	if st.DoubleCommits != 0 {
		t.Fatalf("double commits = %d with fencing on", st.DoubleCommits)
	}

	broken := base
	broken.NoFencing = true
	bst := MustNewRootSupervisor(broken).Run(300 * simtime.Millisecond)
	if bst.DoubleCommits == 0 {
		t.Fatal("NoFencing run produced no double commits — the broken build went undetected")
	}
}

// Uneven shard division can leave a tail shard with zero members; the
// fleet must run it without panicking and with no digest traffic from it.
func TestFleetEmptyTailShard(t *testing.T) {
	r := MustNewRootSupervisor(fleetCfg(4, 3, 2, 13))
	if n := r.shards[2].n; n != 0 {
		t.Fatalf("expected empty tail shard, got %d members", n)
	}
	st := r.Run(50 * simtime.Millisecond)
	if st.Checkpoints == 0 {
		t.Fatal("no checkpoints acked")
	}
	if got := r.SC.Shard(2).Get("det.digests"); got != 0 {
		t.Fatalf("empty shard ingested %d digests", got)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  FleetConfig
	}{
		{"one node", FleetConfig{Nodes: 1, Shards: 1}},
		{"zero shards", FleetConfig{Nodes: 4, Shards: 0}},
		{"shards exceed nodes", FleetConfig{Nodes: 4, Shards: 5}},
		{"jobs exceed nodes", FleetConfig{Nodes: 4, Shards: 2, Jobs: 5}},
		{"bad probability", FleetConfig{Nodes: 4, Shards: 2, HBLoss: 1.5}},
	} {
		if _, err := NewRootSupervisor(tc.cfg); err == nil {
			t.Errorf("%s: config accepted, want error", tc.name)
		}
	}
	if err := MustNewRootSupervisor(fleetCfg(4, 2, 2, 1)).FailAt(0, 99, true, 0); err == nil {
		t.Error("FailAt accepted out-of-range node")
	}
}
