package main

import (
	"sort"
	"strings"
)

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units, directions and (end-to-end) bounds, and the README
// catalogue describes each one; a self-test keeps the three in step.
type metricDef struct {
	name   string
	unit   string
	clock  string // "host", "sim" or "count"
	better string // "lower" or "higher"
	// bound is how far an end-to-end metric may worsen, as a share of
	// the baseline median, before a change counts as a regression.
	bound float64
}

// measured is what a finished run hands to the catalogue.
type measured struct {
	rec    *recorder
	tr     *tracer
	rf     roundFunc
	speed  *hostSpeed
	setupS []float64
	// heapMiB is the largest live heap a GC found during the rounds.
	heapMiB float64
	// Runtime activity during the measured rounds.
	gcCycles, gcPauseMs, allocMiB float64
	overheadPct                   float64
	// hostSpeed is the factor that scales this run's host times to
	// reference speed.
	hostSpeed float64
}

// scaled converts a host-clock value measured at the run's host speed
// to reference speed: times shrink by the factor, rates grow.
func (d metricDef) scaled(v, factor float64) float64 {
	if d.clock != "host" {
		return v
	}
	switch unit, _, _ := strings.Cut(d.unit, "/"); {
	case d.unit == "1/s":
		return v / factor
	case unit == "s" || unit == "ms" || unit == "us":
		return v * factor
	}
	return v
}

type metric struct {
	metricDef
	// span is the traced layer whose self time the metric reports, if any.
	span string
	// value computes the metric and its sample count. An error means a
	// percentile had too few samples beyond it.
	value func(m *measured) (float64, int, error)
}

// The end-to-end metrics, reported by untraced runs. Every workload
// reports every one; workload.op says what the unit op is.
var endToEnd = []metric{
	{metricDef: metricDef{"setup_s", "s", "host", "lower", 0.25}, value: func(m *measured) (float64, int, error) {
		return median(m.setupS), len(m.setupS), nil
	}},
	{metricDef: metricDef{"wall_s", "s", "host", "lower", 0.25}, value: func(m *measured) (float64, int, error) {
		return mean(m.rec.roundWall), len(m.rec.roundWall), nil
	}},
	{metricDef: metricDef{"host_ms.p50", "ms", "host", "lower", 0.25}, value: pct(func(r *recorder) []float64 { return r.hostOp }, 50)},
	{metricDef: metricDef{"host_ms.p90", "ms", "host", "lower", 0.25}, value: pct(func(r *recorder) []float64 { return r.hostOp }, 90)},
	// Simulated times are quantized to the simulation's steps, so their
	// percentiles move in steps; the mean does not.
	{metricDef: metricDef{"sim_ms.mean", "ms", "sim", "lower", 0.15}, value: func(m *measured) (float64, int, error) {
		return mean(m.rec.simOp), len(m.rec.simOp), nil
	}},
	{metricDef: metricDef{"round_sim_ms", "ms", "sim", "lower", 0.15}, value: func(m *measured) (float64, int, error) {
		return mean(m.rec.roundSim), len(m.rec.roundSim), nil
	}},
	{metricDef: metricDef{"heap_peak_mib", "MiB", "host", "lower", 0.25}, value: func(m *measured) (float64, int, error) {
		return m.heapMiB, 1, nil
	}},
}

// The per-layer metrics, reported by traced runs. Layers are named after
// the repository's packages. A layer a workload does not exercise reads
// 0 there.
var perLayer = []metric{
	hostSelf("checkpoint.capture.self_host_ms", "checkpoint.capture"),
	hostSelf("checkpoint.tracker.collect_host_ms", "checkpoint.tracker.collect"),
	{metricDef: metricDef{"checkpoint.tracker.dirty_kib", "KiB/collect", "count", "lower", 0}, value: func(m *measured) (float64, int, error) {
		n := m.tr.calls["checkpoint.tracker.collect"]
		if n == 0 {
			return 0, 0, nil
		}
		return m.tr.vals["checkpoint.tracker.dirty_bytes"] / 1024 / float64(n), n, nil
	}},
	hostSelf("checkpoint.fold.host_ms", "checkpoint.fold"),
	callsPerRound("checkpoint.fold.calls", "checkpoint.fold"),
	hostSelf("checkpoint.load.self_host_ms", "checkpoint.load"),
	hostSelf("checkpoint.replay.host_ms", "checkpoint.replay"),
	avg("checkpoint.replay.kib", "KiB/restore", "count", "replay_kib"),
	hostSelf("checkpoint.decode.host_ms", "checkpoint.decode"),
	hostSelf("checkpoint.lazy.restore.self_host_ms", "checkpoint.lazy.restore"),
	hostSelf("checkpoint.lazy.drain.self_host_ms", "checkpoint.lazy.drain"),
	avg("checkpoint.lazy.ttfi_host_ms", "ms/restore", "host", "lazy.ttfi_host_ms"),
	avg("checkpoint.lazy.drain_host_ms", "ms/restore", "host", "lazy.drain_host_ms"),
	avg("checkpoint.lazy.ttfi_sim_ms", "ms/restore", "sim", "lazy.ttfi_sim_ms"),
	avg("checkpoint.lazy.hot_kib", "KiB/restore", "count", "lazy.hot_kib"),
	avg("checkpoint.lazy.faults_served", "1/restore", "count", "lazy.faults_served"),
	avg("checkpoint.lazy.prefetched", "1/restore", "count", "lazy.prefetched"),

	hostSelf("storage.write.self_host_ms", "storage.write"),
	hostSelf("storage.read.self_host_ms", "storage.read"),
	hostSelf("storage.member.write_host_ms", "storage.member.write"),
	hostSelf("storage.member.read_host_ms", "storage.member.read"),
	{metricDef: metricDef{"storage.member.written_kib", "KiB/round", "count", "lower", 0}, value: func(m *measured) (float64, int, error) {
		return m.rec.perRound(m.tr.vals["storage.member.written_bytes"] / 1024), m.rec.rounds, nil
	}},
	{metricDef: metricDef{"storage.member.read_kib", "KiB/round", "count", "lower", 0}, value: func(m *measured) (float64, int, error) {
		return m.rec.perRound(m.tr.vals["storage.member.read_bytes"] / 1024), m.rec.rounds, nil
	}},
	{metricDef: metricDef{"storage.ship_kib_per_ckpt", "KiB/ckpt", "count", "lower", 0}, value: func(m *measured) (float64, int, error) {
		n := m.rec.ns["ckpt.member_bytes"]
		if n == 0 {
			return 0, 0, nil
		}
		return m.rec.sums["ckpt.member_bytes"] / 1024 / float64(n), n, nil
	}},
	{metricDef: metricDef{"storage.write_amp", "x", "count", "lower", 0}, value: func(m *measured) (float64, int, error) {
		logical := m.rec.sums["ckpt.logical_bytes"]
		if logical == 0 {
			return 0, 0, nil
		}
		return m.rec.sums["ckpt.member_bytes"] / logical, m.rec.ns["ckpt.logical_bytes"], nil
	}},
	sumPerRound("storage.read.degraded_ops", "1/round", "count", "degraded_ops"),
	hostSelf("storage.compact.self_host_ms", "storage.compact"),
	hostSelf("storage.retire.host_ms", "storage.retire"),
	simWait("repl-write"),
	simWait("repl-publish"),
	simWait("repl-shard-read"),

	hostSelf("simos.run.host_ms", "simos.run"),
	hostSelf("workload.step.host_ms", "workload.step"),
	callsPerRound("workload.steps", "workload.step"),

	hostSelf("mechanism.restart.host_ms", "mechanism.restart"),
	callsPerRound("mechanism.restart.calls", "mechanism.restart"),
	hostSelf("mechanism.restart_lazy.host_ms", "mechanism.restart_lazy"),
	callsPerRound("mechanism.restart_lazy.calls", "mechanism.restart_lazy"),
	{metricDef: metricDef{"mechanism.restart.sim_ms", "ms/round", "sim", "lower", 0}, value: func(m *measured) (float64, int, error) {
		return m.rec.perRound(m.tr.vals["mechanism.restart.sim_ms"]), m.rec.rounds, nil
	}},

	hostSelf("cluster.other.host_ms", "cluster.run"),
	sumPerRound("cluster.failovers", "1/round", "count", "failovers"),
	sumPerRound("cluster.false_failovers", "1/round", "count", "false_failovers"),
	sumPerRound("cluster.acks", "1/round", "count", "acks"),
	sumPerRound("cluster.compactions", "1/round", "count", "compactions"),
	sumPerRound("cluster.retired", "1/round", "count", "retired"),
	sumPerRound("cluster.repairs", "1/round", "count", "repairs"),
	sumPerRound("cluster.scratch_restarts", "1/round", "count", "scratch_restarts"),
	avg("cluster.resume_sim_ms", "ms/failover", "sim", "resume_sim_ms"),
	sumPerRound("cluster.work_lost_sim_ms", "ms/round", "sim", "work_lost_sim_ms"),
	avg("cluster.detect_sim_ms", "ms/fault", "sim", "detect_sim_ms"),

	callsPerRound("detector.calls", "detector"),
	hostSelf("detector.host_ms", "detector"),
	sumPerRound("detector.false_suspicions", "1/round", "count", "false_suspicions"),

	avg("policy.final_interval_sim_ms", "ms", "sim", "final_interval_ms"),
	sumPerRound("policy.recomputes", "1/round", "count", "recomputes"),

	hostSelf("fleet.run.host_ms", "fleet.run"),
	avg("fleet.tick_host_us", "us/tick", "host", "tick_host_us"),
	{metricDef: metricDef{"fleet.events_per_host_s", "1/s", "host", "higher", 0}, value: func(m *measured) (float64, int, error) {
		s := m.rec.sums["fleet.run_host_s"]
		if s == 0 {
			return 0, 0, nil
		}
		return m.rec.sums["fleet.events"] / s, m.rec.rounds, nil
	}},
	sumPerRound("fleet.events", "1/round", "count", "fleet.events"),
	sumPerRound("fleet.batches", "1/round", "count", "fleet.batches"),
	sumPerRound("fleet.checkpoints", "1/round", "count", "fleet.checkpoints"),
	sumPerRound("fleet.migrations", "1/round", "count", "fleet.migrations"),
	sumPerRound("fleet.false_positives", "1/round", "count", "fleet.false_positives"),

	{metricDef: metricDef{"runtime.gc_cycles", "1/round", "count", "lower", 0}, value: func(m *measured) (float64, int, error) {
		return m.rec.perRound(m.gcCycles), m.rec.rounds, nil
	}},
	{metricDef: metricDef{"runtime.gc_pause_ms", "ms/round", "host", "lower", 0}, value: func(m *measured) (float64, int, error) {
		return m.rec.perRound(m.gcPauseMs), m.rec.rounds, nil
	}},
	{metricDef: metricDef{"runtime.alloc_mib", "MiB/round", "count", "lower", 0}, value: func(m *measured) (float64, int, error) {
		return m.rec.perRound(m.allocMiB), m.rec.rounds, nil
	}},

	{metricDef: metricDef{"runtime.host_speed", "x", "host", "higher", 0}, value: func(m *measured) (float64, int, error) {
		return m.hostSpeed, len(m.speed.one), nil
	}},

	{metricDef: metricDef{"trace.overhead_pct", "%", "host", "lower", 0}, value: func(m *measured) (float64, int, error) {
		return m.overheadPct, m.rec.rounds, nil
	}},
	{metricDef: metricDef{"trace.unattributed_pct", "%", "host", "lower", 0}, value: func(m *measured) (float64, int, error) {
		return mean(m.rec.unattributed), len(m.rec.unattributed), nil
	}},
	{metricDef: metricDef{"trace.unattributed_pct.p90", "%", "host", "lower", 0}, value: func(m *measured) (float64, int, error) {
		if len(m.rec.unattributed) == 0 {
			return 0, 0, nil
		}
		v, err := percentile(m.rec.unattributed, 90)
		return v, len(m.rec.unattributed), err
	}},
}

func pct(samples func(*recorder) []float64, p int) func(*measured) (float64, int, error) {
	return func(m *measured) (float64, int, error) {
		xs := samples(m.rec)
		v, err := percentile(xs, p)
		return v, len(xs), err
	}
}

// hostSelf reports a layer's host self time per round.
func hostSelf(name, span string) metric {
	return metric{metricDef: metricDef{name, "ms/round", "host", "lower", 0}, span: span, value: func(m *measured) (float64, int, error) {
		return m.rec.perRound(m.tr.selfMs(span)), m.rec.rounds, nil
	}}
}

// callsPerRound reports how often a span was entered per round.
func callsPerRound(name, span string) metric {
	return metric{metricDef: metricDef{name, "1/round", "count", "lower", 0}, value: func(m *measured) (float64, int, error) {
		return m.rec.perRound(float64(m.tr.calls[span])), m.rec.rounds, nil
	}}
}

// sumPerRound reports a recorded quantity's total per round.
func sumPerRound(name, unit, clock, key string) metric {
	return metric{metricDef: metricDef{name, unit, clock, "lower", 0}, value: func(m *measured) (float64, int, error) {
		return m.rec.perRound(m.rec.sums[key]), m.rec.rounds, nil
	}}
}

// avg reports a recorded quantity's mean over its observations.
func avg(name, unit, clock, key string) metric {
	return metric{metricDef: metricDef{name, unit, clock, "lower", 0}, value: func(m *measured) (float64, int, error) {
		return m.rec.meanOf(key), m.rec.ns[key], nil
	}}
}

// simWait reports the simulated storage wait billed under one label.
func simWait(label string) metric {
	return metric{metricDef: metricDef{"storage.wait_sim_ms." + label, "ms/round", "sim", "lower", 0}, value: func(m *measured) (float64, int, error) {
		if m.rec.ledger == nil {
			return 0, 0, nil
		}
		return m.rec.perRound(m.rec.ledger.ByCategory["wait:"+label].Millis()), m.rec.rounds, nil
	}}
}

// median is the middle value, or the mean of the middle two.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
