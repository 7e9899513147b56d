package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/mechanism"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/syslevel"
	"repro/internal/trace"
	"repro/internal/userlevel"
)

// tinyRun runs w at test size for its tiny round count.
func tinyRun(t *testing.T, w *workload, seed int64, traced bool, corrupt bool) *measured {
	t.Helper()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	m, err := newMeasured(w, config{seed: seed, tiny: true, corrupt: corrupt, keepEvents: true}, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := runPhase(w.tinyRounds, w.tinyRounds, 0, m); err != nil {
		t.Fatal(err)
	}
	return m
}

// simView is what a run reports on the simulated clock, with its op
// outcomes and event logs: everything the same inputs must reproduce.
type simView struct {
	SimOp, RoundSim   []float64
	Attempted, Failed int
	Sums              map[string]float64
	Waits             map[string]simtime.Duration
	Events            []string
}

func viewOf(m *measured) simView {
	v := simView{SimOp: m.rec.simOp, RoundSim: m.rec.roundSim, Attempted: m.rec.attempted,
		Failed: m.rec.failed, Sums: make(map[string]float64), Events: m.rec.events}
	for k, x := range m.rec.sums {
		if !strings.Contains(k, "host") {
			v.Sums[k] = x
		}
	}
	if m.rec.ledger != nil {
		v.Waits = m.rec.ledger.ByCategory
	}
	return v
}

// TestSimulationReproducible runs every workload at test size twice
// untraced and once traced with one seed. The untraced pair must agree
// exactly on every simulated-clock sample and op outcome. The traced run
// must agree with them too, event log included: the wrappers observe the
// program without changing what it simulates. It also checks that every
// traced layer is reported by some per-layer metric.
func TestSimulationReproducible(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := tinyRun(t, w, 7, false, false)
			b := tinyRun(t, w, 7, false, false)
			c := tinyRun(t, w, 7, true, false)
			va, vb, vc := viewOf(a), viewOf(b), viewOf(c)
			if va.Attempted == 0 || va.Failed != 0 || len(va.SimOp) == 0 {
				t.Fatalf("attempted %d failed %d with %d sim samples", va.Attempted, va.Failed, len(va.SimOp))
			}
			if !reflect.DeepEqual(va, vb) {
				t.Fatalf("same seed, different simulation:\n%+v\n%+v", va, vb)
			}
			// The traced run records extra quantities; compare the ones
			// both record.
			for k, x := range va.Sums {
				if vc.Sums[k] != x {
					t.Errorf("%s: untraced %v, traced %v", k, x, vc.Sums[k])
				}
			}
			vc.Sums = va.Sums
			if !reflect.DeepEqual(va, vc) {
				t.Fatalf("tracing changed the simulation:\n%+v\n%+v", va, vc)
			}
			if d := viewOf(tinyRun(t, w, 8, false, false)); reflect.DeepEqual(d.SimOp, va.SimOp) {
				t.Error("another seed gave identical simulated samples")
			}
			for span := range c.tr.self {
				if !reportsSpan(span) {
					t.Errorf("traced layer %q has no per-layer metric", span)
				}
			}
		})
	}
}

func reportsSpan(span string) bool {
	for _, m := range perLayer {
		if m.span == span {
			return true
		}
	}
	return false
}

// parts implements every optional mechanism interface; an interface
// value of one narrower type exposes only that one.
type parts struct{}

func (parts) RequestDelta(*kernel.Kernel, *proc.Process, storage.Target, *storage.Env,
	checkpoint.Tracker, uint64, bool) (*mechanism.Ticket, error) {
	return nil, nil
}
func (parts) SetCaptureParallelism(int) {}
func (parts) SetRestoreParallelism(int) {}
func (parts) RestartLazy(*kernel.Kernel, *checkpoint.Image, checkpoint.LazyOptions) (*proc.Process, *checkpoint.LazySession, error) {
	return nil, nil, nil
}

// exposes reports which optional interfaces m implements, as a bit mask
// in compose's order.
func exposes(m mechanism.Mechanism) int {
	mask := 0
	if _, ok := m.(mechanism.DeltaRequester); ok {
		mask |= 1
	}
	if _, ok := m.(mechanism.CaptureParallelizer); ok {
		mask |= 2
	}
	if _, ok := m.(mechanism.RestoreParallelizer); ok {
		mask |= 4
	}
	if _, ok := m.(mechanism.LazyRestarter); ok {
		mask |= 8
	}
	return mask
}

// TestWrapMechKeepsOptionalInterfaces checks that the mechanism wrapper
// exposes exactly the optional interfaces of what it wraps, for every
// combination and for the repository's own mechanisms. A missing one
// would silently send the supervisor down a fallback path.
func TestWrapMechKeepsOptionalInterfaces(t *testing.T) {
	var base mechanism.Mechanism = syslevel.NewBLCR()
	for mask := 0; mask < 16; mask++ {
		var (
			d deltaRequest
			c mechanism.CaptureParallelizer
			r mechanism.RestoreParallelizer
			l mechanism.LazyRestarter
		)
		if mask&1 != 0 {
			d = parts{}
		}
		if mask&2 != 0 {
			c = parts{}
		}
		if mask&4 != 0 {
			r = parts{}
		}
		if mask&8 != 0 {
			l = parts{}
		}
		inner := compose(&tracedMech{Mechanism: base}, d, c, r, l)
		if got := exposes(inner); got != mask {
			t.Fatalf("compose(%04b) exposes %04b", mask, got)
		}
		if got := exposes(wrapMech(inner, nil, nil)); got != mask {
			t.Errorf("wrapping a mechanism exposing %04b gives %04b", mask, got)
		}
	}
	for _, m := range []mechanism.Mechanism{syslevel.NewCRAK(), syslevel.NewUCLiK(), syslevel.NewBLCR(),
		syslevel.NewTICK(), userlevel.NewCondorStyle()} {
		if got, want := exposes(wrapMech(m, nil, nil)), exposes(m); got != want {
			t.Errorf("%s: wrapped exposes %04b, want %04b", m.Name(), got, want)
		}
	}
	if got := exposes(syslevel.NewCRAK()); got != 15 {
		t.Errorf("CRAK exposes %04b; job-failover relies on all four", got)
	}
}

// TestShipBytesMatchEncodedBytes cross-checks ckpt-stream's storage
// accounting against the capture layer's own: the KiB landed on members
// per checkpoint equal the encoded bytes times the write amplification.
func TestShipBytesMatchEncodedBytes(t *testing.T) {
	m := tinyRun(t, ckptStream, 3, true, false)
	if err := crossCheck(m.rec); err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		for _, mt := range perLayer {
			if mt.name == name {
				v, _, err := mt.value(m)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
		}
		t.Fatalf("no metric %s", name)
		return 0
	}
	ship, amp := get("storage.ship_kib_per_ckpt"), get("storage.write_amp")
	enc, n := m.rec.sums["ckpt.encoded_bytes"], float64(m.rec.ns["ckpt.encoded_bytes"])
	if want := enc * amp / 1024 / n; math.Abs(ship-want) > 1e-9*want || ship == 0 {
		t.Fatalf("ship %.6f KiB/ckpt, encoded x write_amp gives %.6f", ship, want)
	}
	if amp < 1.5 || amp > 1.51 {
		t.Errorf("2+1 erasure write amplification %.4f, want just over 1.5", amp)
	}
}

func TestWorkLostAgreesWithSupervisor(t *testing.T) {
	lost := []float64{1.5, 0.25, 4}
	h := trace.NewHistogram()
	for _, v := range lost {
		h.Observe(v)
	}
	if err := workLostAgrees(lost, h.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if workLostAgrees(append(lost, 2), h.Snapshot()) == nil {
		t.Error("an extra failover went unnoticed")
	}
	if workLostAgrees([]float64{1.5, 0.25, 4.5}, h.Snapshot()) == nil {
		t.Error("a different amount of work lost went unnoticed")
	}
}

// TestCorruptShardFailsOps flips one byte of one stored shard: the ops
// that must read through it have to fail, and only those.
func TestCorruptShardFailsOps(t *testing.T) {
	m := tinyRun(t, restoreStorm, 5, false, true)
	if m.rec.failed == 0 || m.rec.failed >= m.rec.attempted {
		t.Fatalf("failed %d of %d ops", m.rec.failed, m.rec.attempted)
	}
}

func TestPercentileSampleFloor(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		n, pct int
		want   float64
		ok     bool
	}{{19, 50, 0, false}, {20, 50, 10, true}, {99, 90, 0, false}, {100, 90, 90, true}} {
		v, err := percentile(xs[:c.n], c.pct)
		if (err == nil) != c.ok || v != c.want {
			t.Errorf("p%d of %d samples = %v, %v", c.pct, c.n, v, err)
		}
	}
}

// TestCatalogMatchesSpecAndReadme keeps BENCHMARK.json and the README in
// step with the metric catalogue and the workload list.
func TestCatalogMatchesSpecAndReadme(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp struct {
		Workloads []map[string]string `json:"workloads"`
		EndToEnd  []map[string]any    `json:"end_to_end"`
		PerLayer  []map[string]any    `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := sp.Workloads[i]; got["name"] != w.name || got["why"] != w.why || len(got) != 2 {
			t.Errorf("workload %d: BENCHMARK.json has %v, want %s: %s", i, got, w.name, w.why)
		}
		if !bytes.Contains(readme, []byte("`"+w.name+"`")) {
			t.Errorf("README does not describe workload %s", w.name)
		}
	}
	check := func(kind string, got []map[string]any, want []metric, withBound bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i, m := range want {
			exp := map[string]any{"name": m.name, "unit": m.unit, "better": m.better}
			if withBound {
				exp["bound"] = m.bound
			}
			if !reflect.DeepEqual(got[i], exp) {
				t.Errorf("%s %d: BENCHMARK.json has %v, catalogue %v", kind, i, got[i], exp)
			}
			if !bytes.Contains(readme, []byte("`"+m.name+"`")) {
				t.Errorf("README does not describe %s", m.name)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd, true)
	check("per_layer", sp.PerLayer, perLayer, false)
}

// TestResultLine checks the output contract: the last line is one JSON
// object with exactly the keys correct, attempted, failed and metrics,
// and the metrics are exactly the run's catalogue.
func TestResultLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res := runWorkload(fleet10k, config{seed: 1, tiny: true}, 0, traced)
		var buf bytes.Buffer
		if err := res.print(&buf, fleet10k, 1, traced); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil ||
			last["failed"] == nil || last["metrics"] == nil {
			t.Fatalf("result keys: %s", lines[len(lines)-1])
		}
		if !res.Correct {
			t.Errorf("traced=%v: run failed its checks", traced)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(res.Metrics) != len(want) || len(lines) != len(want)+2 {
			t.Errorf("traced=%v: %d metrics and %d lines for a catalogue of %d", traced, len(res.Metrics), len(lines), len(want))
		}
	}
	for _, args := range [][]string{{"-workload", "nope"}, {"-trace", "x"}, {"-seconds", "-1"}, {"-compare", "a.json"}} {
		if code := run(args, io.Discard); code != 2 {
			t.Errorf("run %v exited %d, want 2", args, code)
		}
	}
}

// TestQuartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Fatalf("quartiles %v %v, median %v", q1, q3, median(xs))
	}
	if q1, q3 := quartiles([]float64{1, 2, 3}); q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles of 3: %v %v", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	sum := func(vs ...float64) *metricSummary {
		m := &metricSummary{Values: vs, Median: median(vs)}
		m.Q1, m.Q3 = quartiles(vs)
		return m
	}
	steady := sum(100, 100.5, 101, 99.5, 100)
	for _, c := range []struct {
		next   *metricSummary
		better string
		want   string
	}{
		{sum(104, 104.5, 105, 103.5, 104), "lower", "same"},
		{sum(112, 112.5, 113, 111.5, 112), "lower", "worse"},
		{sum(112, 112.5, 113, 111.5, 112), "higher", "better"},
		{sum(80, 120, 100, 90, 110), "lower", "unresolved"},
		{sum(60, 90, 70, 80, 75), "lower", "better"},
	} {
		if got := verdict(steady, c.next, c.better, 0.10); got != c.want {
			t.Errorf("%v (%s is better): %s, want %s", c.next.Values, c.better, got, c.want)
		}
	}
}
