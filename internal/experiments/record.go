package experiments

import (
	"fmt"
	"math"
	"path"
	"strings"

	"repro/internal/trace"
)

// Record is one measured value of E14–E20. A distribution is several
// records, one per statistic, with the statistic in the metric name
// (restore_ms.p50, restore_ms.max). Flags are 1 (true) or 0 (false) in
// unit "bool"; counts are unit "count".
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
)

// Gates is the acceptance table of E14–E20.
var Gates = []Gate{
	{"E14", "*", "errors", noMin, 0},
	{"E15", "*", "errors", noMin, 0},
	{"E16", "*", "errors", noMin, 0},

	{"E17", "*", "errors", noMin, 0},
	{"E17", "replicated *", "completed", 1, noMax},
	{"E17", "replicated *", "restores", 1, noMax},
	{"E17", "replicated *", "restore_p50_vs_baseline", noMin, 2},

	{"E18", "*", "errors", noMin, 0},
	{"E18", "fleet-*", "pass", 1, noMax},
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
