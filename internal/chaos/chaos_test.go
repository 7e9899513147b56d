package chaos

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// sweepSeeds is the tier-1 sweep width: 20 runs of every feature row.
// The nightly CI job runs 10k seeds via `crsurvey chaos`; this keeps
// every `go test` run honest.
var sweepSeeds = int64(20 * len(featureRows))

// TestChaosSweep runs the generator across sweepSeeds consecutive seeds
// and demands zero invariant violations: with fencing on and atomic
// commit in place, no composition of features, storage faults, network
// chaos, partitions, and node failures the generator emits may lose an
// acked checkpoint, double-commit, corrupt restored state, consult the
// oracle, wedge recovery, or (on youngdaly seeds) lose more than twice
// a fixed-cadence twin's work. Each feature's own path must also have
// really run on some seed, or the sweep proves nothing about it.
//
// The sweep also pins every run: each row's seeds fold their
// Result.Digest, in seed order, into one FNV-64 that must match
// rowDigests. That makes the sweep a determinism check as well (a
// nondeterministic run cannot keep its pin) and a golden for refactors
// that must not change behaviour.
func TestChaosSweep(t *testing.T) {
	rows := make([]hash.Hash64, len(featureRows))
	for i := range rows {
		rows[i] = fnv.New64()
	}
	engaged := map[string]int{
		"restore.lazy":     0, // lazy restart-before-read failover
		"compact.folds":    0, // server-side chain compaction
		"det.digest_sent":  0, // sharded digest detection
		"repl.publishes":   0, // replicated checkpoint writes
		"pipe.shipped":     0, // pipelined shipping
		"policy.recompute": 0, // youngdaly cadence recompute
	}
	for seed := int64(1); seed <= sweepSeeds; seed++ {
		r := Run(Generate(seed))
		binary.Write(rows[seed%int64(len(rows))], binary.LittleEndian, r.Digest)
		if len(r.Violations) > 0 {
			t.Errorf("seed %d: %s", seed, r.Summary())
			for _, v := range r.Violations {
				t.Errorf("  %s", v)
			}
			t.Errorf("  reproduce: %s", r.Spec.ReplayLine())
		}
		for path := range engaged {
			if strings.Contains(r.Counters, path) {
				engaged[path]++
			}
		}
	}
	for path, n := range engaged {
		if n == 0 {
			t.Errorf("no seed in [1,%d] ever took the %s path", sweepSeeds, path)
		}
	}
	t.Logf("seeds engaging each feature path: %v", engaged)
	for i, h := range rows {
		if got := h.Sum64(); got != rowDigests[i] {
			var seeds []int64
			for seed := int64(i); seed <= sweepSeeds; seed += int64(len(rows)) {
				if seed > 0 {
					seeds = append(seeds, seed)
				}
			}
			t.Errorf("row %d %+v: digest fold %#x, want %#x; seeds %v changed behaviour "+
				"(Confirm(Generate(seed)) tells a nondeterministic seed from a changed one)",
				i, featureRows[i], got, rowDigests[i], seeds)
		}
	}
}

// rowDigests pins TestChaosSweep: entry i folds the digests of seeds
// congruent to i modulo len(featureRows), in seed order.
var rowDigests = [...]uint64{
	0xf4ff083dcf6ed7b8, 0xd0843c9698117d60, 0xbe0db8ec379e962d, 0x473d78b0f19b8ebc,
	0x3d9bc032055918d2, 0x84b25b5d14fb8284, 0x6872ea20b74c1e11, 0x01a7a4cf9a2a4054,
	0x45739764262f0296, 0x35f89f6cb107b790, 0x3d4dccde6f4f758c, 0x1b56dfde210fc1d4,
}

// knob is one feature dimension of the covering array: its name, every
// value it takes, and how to read it off a row.
type knob struct {
	name   string
	values []string
	of     func(featureRow) string
}

var knobs = []knob{
	{"incr", []string{"false", "true"}, func(r featureRow) string { return fmt.Sprint(r.Incremental) }},
	{"pipeline", []string{"0", "1", "2", "4"}, func(r featureRow) string { return fmt.Sprint(r.Pipeline) }},
	{"compact", []string{"false", "true"}, func(r featureRow) string { return fmt.Sprint(r.Compact) }},
	{"live", []string{"false", "true"}, func(r featureRow) string { return fmt.Sprint(r.Liveness) }},
	{"repl", []string{"", "buddy", "erasure"}, func(r featureRow) string { return r.Replication }},
	{"shards", []string{"0", "2"}, func(r featureRow) string { return fmt.Sprint(r.Shards) }},
	{"lazy", []string{"false", "true"}, func(r featureRow) string { return fmt.Sprint(r.Lazy) }},
	{"policy", []string{"", "youngdaly"}, func(r featureRow) string { return r.Policy }},
}

// TestFeatureRowsCoverAllPairs enumerates every valid pair of knob
// values — compaction and liveness exist only with delta chains — and
// finds each in some row of the table, so a len(featureRows) block of
// consecutive seeds composes every pair of features.
func TestFeatureRowsCoverAllPairs(t *testing.T) {
	chainOnly := map[string]bool{"compact": true, "live": true}
	pairs := 0
	for i, a := range knobs {
		for _, b := range knobs[i+1:] {
			for _, va := range a.values {
				for _, vb := range b.values {
					if a.name == "incr" && va == "false" && chainOnly[b.name] && vb == "true" {
						continue
					}
					pairs++
					found := false
					for _, r := range featureRows {
						if a.of(r) == va && b.of(r) == vb {
							found = true
							break
						}
					}
					if !found {
						t.Errorf("no row has %s=%q with %s=%q", a.name, va, b.name, vb)
					}
				}
			}
		}
	}
	if pairs != 154 {
		t.Errorf("enumerated %d valid pairs, want 154", pairs)
	}
	for i, r := range featureRows {
		for _, k := range knobs {
			if v := k.of(r); !slices.Contains(k.values, v) {
				t.Errorf("row %d: %s=%q is not a knob value", i, k.name, v)
			}
		}
		if (r.Compact || r.Liveness) && !r.Incremental {
			t.Errorf("row %d: compaction or liveness without delta chains", i)
		}
	}
}

// TestGenerateFitsRow checks every generated spec of the sweep width
// against its row: the row's features are on and nothing else is, the
// spec validates, erasure and sharded seeds get at least four workers,
// and erasure seeds at most one node failure.
func TestGenerateFitsRow(t *testing.T) {
	for seed := int64(1); seed <= sweepSeeds; seed++ {
		sp, r := Generate(seed), rowOf(seed)
		if err := sp.validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sp.Incremental != r.Incremental || (sp.CompactAfter > 0) != r.Compact ||
			sp.Liveness != r.Liveness || sp.Pipeline != r.Pipeline ||
			sp.Replication != r.Replication || sp.Shards != r.Shards ||
			sp.LazyRestore != r.Lazy || sp.Policy != r.Policy {
			t.Fatalf("seed %d: spec %s does not match row %+v", seed, sp.MarshalLine(), r)
		}
		if (sp.Replication == "erasure" || sp.Shards > 0) && sp.workers() < 4 {
			t.Errorf("seed %d: %d workers on an erasure or sharded row", seed, sp.workers())
		}
		if sp.Replication == "erasure" && len(sp.Failures) > 1 {
			t.Errorf("seed %d: %d node failures on an erasure row", seed, len(sp.Failures))
		}
	}
}

// TestGenerateDeterministic pins the generator itself: one seed, one
// spec.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate not deterministic:\n%s\n%s", seed, a.MarshalLine(), b.MarshalLine())
		}
	}
}

// TestSpecRoundTrip checks the reproducer exchange format: a spec must
// survive MarshalLine → ParseSpec unchanged, or printed replay lines
// would not rerun the scenario they came from.
func TestSpecRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		sp := Generate(seed)
		got, err := ParseSpec(sp.MarshalLine())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(sp, got) {
			t.Fatalf("seed %d: round trip changed spec:\n in %s\nout %s", seed, sp.MarshalLine(), got.MarshalLine())
		}
	}
}

// TestRunDeterministic double-runs one fenced scenario per feature row
// and requires equal digests — the foundation the whole harness stands
// on. Demand-fault ordering, prefetch batching, digest emission and
// aggregator reassignment, replica fan-out and repair, background folds,
// the youngdaly cadence and the liveness exclusion set must all be
// schedule-stable, or replay lines are worthless.
func TestRunDeterministic(t *testing.T) {
	for seed := int64(1); seed <= int64(len(featureRows)); seed++ {
		if ok, a, b := Confirm(Generate(seed)); !ok {
			t.Fatalf("seed %d nondeterministic: digest %#x vs %#x\n--- first ---\n%s\n--- second ---\n%s",
				seed, a.Digest, b.Digest, a.EventLog, b.EventLog)
		}
	}
}

// TestBrokenFencingCaught is the harness's own acceptance test: disable
// epoch fencing (the deliberately broken build), sweep seeds until the
// double-commit checker fires, confirm the violation is deterministic,
// shrink it to a minimal reproducer, and replay the printed line.
func TestBrokenFencingCaught(t *testing.T) {
	var sp *Spec
	for seed := int64(1); seed <= 60; seed++ {
		cand := Generate(seed)
		cand.NoFencing = true
		if Run(cand).Violated("double-commit") {
			sp = cand
			break
		}
	}
	if sp == nil {
		t.Fatal("no seed in [1,60] produced a double commit with fencing disabled")
	}

	ok, a, b := Confirm(sp)
	if !ok {
		t.Fatalf("violation did not confirm: digest %#x vs %#x", a.Digest, b.Digest)
	}
	if !a.Violated("double-commit") {
		t.Fatal("confirmation run lost the violation")
	}

	min, evals := Shrink(sp, "double-commit")
	if min.Size() > sp.Size() {
		t.Fatalf("shrink grew the spec: %d -> %d", sp.Size(), min.Size())
	}
	t.Logf("shrunk size %d -> %d in %d runs", sp.Size(), min.Size(), evals)
	t.Logf("reproduce: %s", min.ReplayLine())

	r, err := Replay(min.Seed, min.MarshalLine())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Violated("double-commit") {
		t.Fatalf("shrunken reproducer no longer violates: %s", r.Summary())
	}
}

// TestReplayPinnedReproducer replays a shrunken reproducer that
// TestBrokenFencingCaught once printed — the exact workflow a failing
// nightly seed turns into a regression test. The spec is a 3-node
// cluster where the sole discrete fault is a partition islanding the
// worker: with fencing off, the isolated incarnation's stale publish
// lands after the spare took over.
func TestReplayPinnedReproducer(t *testing.T) {
	r, err := Replay(5, `{"seed":5,"nodes":3,"mib":1,"wf":0.2558857741681152,"wseed":33177,"iters":36,"interval":5000000,"detector":"phi-8","hb":264000,"storage":{},"partitions":[{"at":3597512,"heal":15597512,"side":[0]}],"quiesce":17597512,"budget":3017597512,"nofence":true}`)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Violated("double-commit") {
		t.Fatalf("pinned reproducer no longer violates: %s", r.Summary())
	}
}

// TestReplayEmptySpecRegenerates checks the seed-only replay path.
func TestReplayEmptySpecRegenerates(t *testing.T) {
	r, err := Replay(7, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Spec, Generate(7)) {
		t.Fatal("Replay(seed, \"\") did not regenerate the seed's spec")
	}
	if len(r.Violations) > 0 {
		t.Fatalf("seed 7 violates: %s", r.Summary())
	}
}

// TestSpecValidation rejects specs the executor cannot run.
func TestSpecValidation(t *testing.T) {
	base := Generate(1)
	for name, mutate := range map[string]func(*Spec){
		"too-few-nodes":      func(s *Spec) { s.Nodes = 2 },
		"empty-workload":     func(s *Spec) { s.Iterations = 0 },
		"zero-interval":      func(s *Spec) { s.Cadence = 0 },
		"zero-heartbeat":     func(s *Spec) { s.HBPeriod = 0 },
		"budget-lt-quiesce":  func(s *Spec) { s.Budget = s.Quiesce },
		"fail-observer":      func(s *Spec) { s.Failures = []FailEvent{{At: 1, Node: s.observer()}} },
		"partition-observer": func(s *Spec) { s.Partitions = []PartitionEvent{{At: 1, Heal: 2, Side: []int{s.observer()}}} },
		"unhealed-partition": func(s *Spec) { s.Partitions = []PartitionEvent{{At: 5, Heal: 5, Side: []int{0}}} },
		// The knob combinations cluster.NewSupervisor rejects must fail
		// at parse time, not as a run's "spec" violation.
		"compact-without-incr": func(s *Spec) { s.Incremental, s.Liveness, s.CompactAfter = false, false, 3 },
		"negative-rebase":      func(s *Spec) { s.RebaseEvery = -1 },
		"negative-compact":     func(s *Spec) { s.CompactAfter = -1 },
		"negative-pipeline":    func(s *Spec) { s.Pipeline = -1 },
	} {
		sp := base.Clone()
		mutate(sp)
		if _, err := ParseSpec(sp.MarshalLine()); err == nil {
			t.Errorf("%s: ParseSpec accepted a bad spec", name)
		}
	}
}
