package experiments

import (
	"fmt"
	"math"
	"path"
	"strings"

	"repro/internal/trace"
)

// Record is one measured value of an experiment. A distribution is
// several records, one per statistic, with the statistic in the metric
// name (restore_ms.p50, restore_ms.max). Flags are 1 (true) or 0
// (false) in unit "bool"; counts are unit "count". A comparison of two
// cases is a record of its own, cased "a vs b", whose value is a's
// over b's (a *_ratio metric) or their difference.
type Record struct {
	Exp    string `json:"exp"`
	Case   string `json:"case"`
	Metric string `json:"metric"`
	Unit   string `json:"unit"`
	// Clock is "sim" for values the simulation determines (identical on
	// every host and run) and "host" for wall-clock measurements.
	Clock string  `json:"clock"`
	N     int     `json:"n"`
	Value float64 `json:"value"`
}

func (r Record) String() string {
	return fmt.Sprintf("%s %s %s = %g %s (n=%d, %s)", r.Exp, r.Case, r.Metric, r.Value, r.Unit, r.N, r.Clock)
}

// minTailN is the sample count below which a p99 is not reported: the
// nearest-rank index int(0.99·n) is n−1 for every n < 100, so the "p99"
// of fewer samples is the maximum and is labelled as such.
const minTailN = 100

// tail names a distribution's reported tail statistic and its value.
func tail(s trace.HistSnapshot) (string, float64) {
	if s.N < minTailN {
		return "max", s.Max
	}
	return "p99", s.P99
}

// recorder accumulates one experiment's records and counts the steps
// that failed, so a broken run shows up as an errors record instead of
// a zero or a panic.
type recorder struct {
	exp  string
	recs []Record
	errs int
}

func (r *recorder) add(cs, metric, unit string, n int, v float64) {
	r.recs = append(r.recs, Record{Exp: r.exp, Case: cs, Metric: metric, Unit: unit, Clock: "sim", N: n, Value: v})
}

func (r *recorder) ms(cs, metric string, v float64) { r.add(cs, metric, "ms", 1, v) }

func (r *recorder) count(cs, metric string, v int64) { r.add(cs, metric, "count", 1, float64(v)) }

func (r *recorder) flag(cs, metric string, ok bool) {
	v := 0.0
	if ok {
		v = 1
	}
	r.add(cs, metric, "bool", 1, v)
}

// ratio records num/den; a zero denominator is an error, not an Inf.
func (r *recorder) ratio(cs, metric, unit string, num, den float64) {
	if den == 0 {
		r.errs++
		return
	}
	r.add(cs, metric, unit, 1, num/den)
}

// dist records a distribution's p50 and its tail: .p99 with at least
// minTailN samples, the exact .max below that.
func (r *recorder) dist(cs, name, unit string, s trace.HistSnapshot) {
	r.add(cs, name+".p50", unit, s.N, s.P50)
	label, v := tail(s)
	r.add(cs, name+"."+label, unit, s.N, v)
}

// check counts err as a failed step and reports whether it was nil.
func (r *recorder) check(err error) bool {
	if err != nil {
		r.errs++
	}
	return err == nil
}

// done appends the experiment's errors record and returns the set.
func (r *recorder) done() []Record {
	r.add("all", "errors", "count", 1, float64(r.errs))
	return r.recs
}

// Gate bounds one metric of one experiment: every record with that Exp
// and Metric whose Case matches the path.Match pattern must lie in
// [Min, Max].
type Gate struct {
	Exp, Case, Metric string
	Min, Max          float64
}

func (g Gate) String() string {
	return fmt.Sprintf("%s %s %s in [%g, %g]", g.Exp, g.Case, g.Metric, g.Min, g.Max)
}

var (
	noMin = math.Inf(-1)
	noMax = math.Inf(1)
	// above0 is the least positive value: a Min of above0 means "> 0".
	above0 = math.SmallestNonzeroFloat64
	// under1 and above1 are the floats next to 1: a ratio bound of
	// under1 means "< 1", of above1 "> 1".
	under1 = math.Nextafter(1, 0)
	above1 = math.Nextafter(1, 2)
)

// Gates is the acceptance table of every experiment but E9 and of the
// scenario catalog ("scenario", one block of rows per scenario name).
// Every experiment's errors record must be 0: a step that failed is
// counted, never skipped.
var Gates = []Gate{
	{"E1", "*", "errors", noMin, 0},
	{"E1", "user vs system", "extra_syscalls", 1, noMax},

	{"E2", "*", "errors", noMin, 0},
	{"E2", "dense*", "delta_vs_full", 0.9, noMax},
	{"E2", "chase vs dense", "delta_vs_full_ratio", noMin, 0.2},

	{"E3", "*", "errors", noMin, 0},
	{"E3", "finest vs coarsest", "delta_ratio", noMin, under1},

	{"E4", "*", "errors", noMin, 0},
	{"E4", "load=* OTHER vs FIFO", "total_ratio", above1, noMax},
	{"E4", "load=* FIFO vs idle", "total_ratio", noMin, 3},
	{"E4", "load=* ksignal vs idle", "init_ratio", above1, noMax},

	{"E5", "*", "errors", noMin, 0},
	{"E5", "mtbf=24h *", "completed", 1, noMax},
	{"E5", "mtbf=* vs *", "makespan_ratio", noMin, under1},
	{"E5", "mtbf=* vs *", "lost_work_ratio", noMin, under1},

	{"E6", "*", "errors", noMin, 0},
	{"E6", "young", "makespan_h", above0, noMax},
	{"E6", "young vs fixed x*", "makespan_ratio", noMin, under1},
	{"E6", "youngdaly vs young", "makespan_ratio", noMin, 1.15},

	{"E7", "*", "errors", noMin, 0},
	{"E7", "chase*", "page_vs_line", 8, noMax},
	{"E7", "dense*", "page_vs_line", noMin, 1.1},

	{"E8", "*", "errors", noMin, 0},
	{"E8", "ranks=*", "ckpt_ok", 1, noMax},
	{"E8", "ranks=* vs *", "drain_ratio", 1, noMax},

	{"E10", "*", "errors", noMin, 0},
	{"E10", "swsusp", "processes", 2, noMax},
	{"E10", "fork-ckpt", "parent_progress", 1, noMax},
	{"E10", "gang", "preempt_ms", above0, noMax},

	{"E11", "*", "errors", noMin, 0},
	{"E11", "*", "completed", 1, noMax},
	{"E11", "atomic", "damaged_images", noMin, 0},
	{"E11", "unsafe", "damaged_images", 1, noMax},

	{"E12", "*", "errors", noMin, 0},
	{"E12", "*", "double_commits", noMin, 0},
	{"E12", "phi-8 loss 5%", "completed", 1, noMax},
	{"E12", "phi-8 partition 10ms", "completed", 1, noMax},
	{"E12", "phi-8 partition 10ms", "false_pos", 1, noMax},
	{"E12", "phi-8 partition 10ms", "fenced", 1, noMax},
	{"E12", "oracle *", "false_pos", noMin, 0},
	{"E12", "oracle *", "wasted", noMin, 0},

	{"E13", "*", "errors", noMin, 0},
	{"E13", "shipped", "violations", noMin, 0},
	{"E13", "no-fencing", "violations.double-commit", 1, noMax},
	{"E13", "no-fencing", "first_bad_seed", 1, noMax},

	{"E14", "*", "errors", noMin, 0},

	{"E15", "*", "errors", noMin, 0},
	{"E15", "workers=*", "throughput_mb_s", above0, noMax},
	{"E15", "workers=4", "speedup", 2, noMax},
	{"E15", "pipelined", "completed", 1, noMax},
	{"E15", "pipelined", "publish_ms.p50", above0, noMax},
	{"E15", "pipelined", "chain_len", 1, noMax},
	{"E15", "pipelined", "restore_read_ms", above0, noMax},

	{"E16", "*", "errors", noMin, 0},

	{"E17", "*", "errors", noMin, 0},
	{"E17", "replicated *", "completed", 1, noMax},
	{"E17", "replicated *", "restores", 1, noMax},
	{"E17", "replicated *", "restore_p50_vs_baseline", noMin, 2},

	{"E18", "*", "errors", noMin, 0},
	{"E18", "fleet-*", "violations", noMin, 0},
	{"E18", "10k vs 1k", "detect_ms.max_ratio", above0, 2},

	{"E19", "*", "errors", noMin, 0},
	{"E19", "workers=*", "ttfi_vs_eager", noMin, 0.25},
	{"E19", "workers=*", "digest_match", 1, noMax},
	{"E19", "twins", "fingerprints_match", 1, noMax},
	{"E19", "cluster lazy", "lazy_restores", 1, noMax},

	{"E20", "*", "errors", noMin, 0},
	{"E20", "youngdaly vs fixed", "work_lost_ratio", noMin, 0.8},
	{"E20", "fixed", "work_lost_ms", above0, noMax},
	{"E20", "youngdaly", "recomputes", 1, noMax},
	{"E20", "youngdaly vs fixed", "fingerprints_match", 1, noMax},
	{"E20", "liveness", "bytes_ratio", noMin, 0.9},
	{"E20", "liveness", "excluded_bytes", 1, noMax},
	{"E20", "liveness", "live_digest_match", 1, noMax},
	{"E20", "liveness", "fingerprints_match", 1, noMax},

	// The scenario catalog: every scenario but the broken-build contrast
	// holds every fleet invariant; events_per_s floors sit far below
	// healthy host throughput, so they catch collapses (an accidental
	// O(n²), a serialized event loop), not machine-speed variance;
	// timers bounds one digest tick per shard, and fleet-10k arms
	// exactly one per shard.
	{"scenario", "*", "errors", noMin, 0},
	{"scenario", "smoke-64", "violations", noMin, 0},
	{"scenario", "smoke-64", "events_per_s", 500, noMax},
	{"scenario", "smoke-64", "detect_ms.max", noMin, 10},
	{"scenario", "smoke-64", "detections", 3, noMax},
	{"scenario", "smoke-64", "checkpoints", 50, noMax},
	{"scenario", "smoke-64", "timers", noMin, 8},

	{"scenario", "faulty-net-256", "violations", noMin, 0},
	{"scenario", "faulty-net-256", "events_per_s", 500, noMax},
	{"scenario", "faulty-net-256", "detect_ms.max", noMin, 14},
	{"scenario", "faulty-net-256", "detections", 4, noMax},
	{"scenario", "faulty-net-256", "checkpoints", 200, noMax},
	{"scenario", "faulty-net-256", "timers", noMin, 16},

	{"scenario", "evacuate-128", "violations", noMin, 0},
	{"scenario", "evacuate-128", "events_per_s", 500, noMax},
	{"scenario", "evacuate-128", "detect_ms.max", noMin, 10},
	{"scenario", "evacuate-128", "failover_ms.max", noMin, 15},
	{"scenario", "evacuate-128", "detections", 8, noMax},
	{"scenario", "evacuate-128", "migrations", 1, noMax},
	{"scenario", "evacuate-128", "checkpoints", 100, noMax},

	{"scenario", "fleet-1k", "violations", noMin, 0},
	{"scenario", "fleet-1k", "events_per_s", 2000, noMax},
	{"scenario", "fleet-1k", "detect_ms.max", noMin, 12},
	{"scenario", "fleet-1k", "failover_ms.max", noMin, 16},
	{"scenario", "fleet-1k", "detections", 8, noMax},
	{"scenario", "fleet-1k", "checkpoints", 1000, noMax},
	{"scenario", "fleet-1k", "timers", noMin, 32},

	{"scenario", "fleet-10k", "violations", noMin, 0},
	{"scenario", "fleet-10k", "events_per_s", 2000, noMax},
	{"scenario", "fleet-10k", "detect_ms.max", noMin, 12},
	{"scenario", "fleet-10k", "failover_ms.max", noMin, 16},
	{"scenario", "fleet-10k", "detections", 15, noMax},
	{"scenario", "fleet-10k", "checkpoints", 10000, noMax},
	{"scenario", "fleet-10k", "timers", 64, 64},

	{"scenario", "lazy-restore-128", "violations", noMin, 0},
	{"scenario", "lazy-restore-128", "events_per_s", 500, noMax},
	{"scenario", "lazy-restore-128", "detect_ms.max", noMin, 10},
	{"scenario", "lazy-restore-128", "detections", 6, noMax},
	{"scenario", "lazy-restore-128", "checkpoints", 100, noMax},
	{"scenario", "lazy-restore-128", "lazy_restores", 1, noMax},
	{"scenario", "lazy-restore-128", "timers", noMin, 16},

	// Fencing disabled: double-commit must fire, and nothing else may.
	{"scenario", "broken-fencing-8", "violations.double-commit", 1, noMax},
	{"scenario", "broken-fencing-8", "violation_kinds", noMin, 1},
}

// Violation is one broken gate: a record outside its bounds, or no
// record at all for a gate whose experiment is in the set. Gate is zero
// for a record that breaks the minTailN rule.
type Violation struct {
	Gate   Gate
	Record *Record
}

func (v Violation) String() string {
	switch {
	case v.Record == nil:
		return fmt.Sprintf("no record for gate %s", v.Gate)
	case v.Gate == (Gate{}):
		return fmt.Sprintf("%s: a p99 needs n >= %d", v.Record, minTailN)
	}
	return fmt.Sprintf("%s: outside gate %s", v.Record, v.Gate)
}

func (g Gate) matches(r Record) bool {
	ok, _ := path.Match(g.Case, r.Case)
	return ok && r.Exp == g.Exp && r.Metric == g.Metric
}

// Check enforces Gates on recs. A gate of an experiment with no records
// in recs is not checked, so a subset of experiments can be judged.
func Check(recs []Record) []Violation {
	var out []Violation
	exps := map[string]bool{}
	for i, r := range recs {
		exps[r.Exp] = true
		if strings.HasSuffix(r.Metric, ".p99") && r.N < minTailN {
			out = append(out, Violation{Record: &recs[i]})
		}
	}
	for _, g := range Gates {
		if !exps[g.Exp] {
			continue
		}
		matched := false
		for i, r := range recs {
			if !g.matches(r) {
				continue
			}
			matched = true
			if !(r.Value >= g.Min && r.Value <= g.Max) {
				out = append(out, Violation{Gate: g, Record: &recs[i]})
			}
		}
		if !matched {
			out = append(out, Violation{Gate: g})
		}
	}
	return out
}

// RecordTable renders recs as one table, with any gate violations as
// notes under it.
func RecordTable(title string, recs []Record) *trace.Table {
	tb := trace.NewTable(title, "case", "metric", "value", "unit", "n", "clock")
	for _, r := range recs {
		v := fmt.Sprintf("%.3f", r.Value)
		if r.Value == math.Trunc(r.Value) {
			v = fmt.Sprintf("%.0f", r.Value)
		}
		tb.Row(r.Case, r.Metric, v, r.Unit, r.N, r.Clock)
	}
	vs := Check(recs)
	for _, v := range vs {
		tb.Note("GATE FAILED: %s", v)
	}
	if len(vs) == 0 {
		tb.Note("every gate passes")
	}
	return tb
}
