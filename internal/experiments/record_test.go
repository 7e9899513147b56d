package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

// quickRecords runs E14–E20 at quick size once per test binary.
var quickRecords = sync.OnceValue(func() []Record {
	var recs []Record
	for _, run := range []func(bool) []Record{E14, E15, E16, E17, E18, E19, E20} {
		recs = append(recs, run(true)...)
	}
	return recs
})

// TestGates: every E14–E20 gate passes at quick size. Check also
// reports a gate that matches no record, so a renamed metric cannot
// orphan its gate.
func TestGates(t *testing.T) {
	recs := quickRecords()
	for _, v := range Check(recs) {
		t.Error(v)
	}
	for _, r := range recs {
		if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
			t.Errorf("%v: not a finite value", r)
		}
		if r.Clock != "sim" && r.Clock != "host" {
			t.Errorf("%v: clock %q", r, r.Clock)
		}
	}
}

// passingRecords returns one record per gate, each exactly on the
// gate's finite bound.
func passingRecords() []Record {
	var recs []Record
	for _, g := range Gates {
		v := g.Max
		if math.IsInf(v, 1) {
			v = g.Min
		}
		cs := g.Case
		if strings.HasSuffix(cs, "*") {
			cs = strings.TrimSuffix(cs, "*") + "x"
		}
		recs = append(recs, Record{Exp: g.Exp, Case: cs, Metric: g.Metric, Clock: "sim", N: 1, Value: v})
	}
	return recs
}

// TestCheckReportsEachGate pushes each gate's record one float step
// past its bound and demands exactly that gate back.
func TestCheckReportsEachGate(t *testing.T) {
	if vs := Check(passingRecords()); len(vs) != 0 {
		t.Fatalf("records on their bounds fail: %v", vs)
	}
	for i, g := range Gates {
		recs := passingRecords()
		if math.IsInf(g.Max, 1) {
			recs[i].Value = math.Nextafter(g.Min, math.Inf(-1))
		} else {
			recs[i].Value = math.Nextafter(g.Max, math.Inf(1))
		}
		vs := Check(recs)
		if len(vs) != 1 || vs[0].Gate != g || vs[0].Record == nil || *vs[0].Record != recs[i] {
			t.Errorf("gate %v: got %v", g, vs)
		}
	}
}

func TestCheckFailsOnError(t *testing.T) {
	rec := &recorder{exp: "E15"}
	rec.ratio("workers=1", "speedup", "x", 1, 0) // a zero denominator is an error
	recs := rec.done()
	vs := Check(recs)
	if len(vs) != 1 || vs[0].Gate.Metric != "errors" || recs[len(recs)-1].Value != 1 {
		t.Fatalf("errors=1 not reported: %v in %v", vs, recs)
	}
	if len(recs) != 1 {
		t.Fatalf("a failed ratio left a record: %v", recs)
	}
}

func TestCheckReportsMissingRecord(t *testing.T) {
	recs := []Record{{Exp: "E17", Case: "all", Metric: "errors", Clock: "sim", N: 1}}
	if vs := Check(recs); len(vs) != 3 {
		t.Fatalf("want the three E17 gates with no record, got %v", vs)
	}
}

// TestDistTailNeedsSamples: below minTailN samples a distribution's tail
// is its exact maximum, labelled .max; from minTailN on it is .p99.
func TestDistTailNeedsSamples(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{{2, "max"}, {99, "max"}, {100, "p99"}} {
		h := trace.NewHistogram()
		for i := 0; i < tc.n; i++ {
			h.Observe(float64(i))
		}
		rec := &recorder{exp: "E16"}
		rec.dist("c", "restore_ms", "ms", h.Snapshot())
		got := rec.recs[1]
		if got.Metric != "restore_ms."+tc.want || got.N != tc.n {
			t.Errorf("n=%d: tail record %v, want restore_ms.%s", tc.n, got, tc.want)
		}
		if tc.want == "max" && got.Value != float64(tc.n-1) {
			t.Errorf("n=%d: max %v, want %d", tc.n, got.Value, tc.n-1)
		}
	}
	bad := []Record{{Exp: "E99", Metric: "x_ms.p99", N: 99}}
	if vs := Check(bad); len(vs) != 1 || vs[0].Gate != (Gate{}) {
		t.Fatalf("a p99 of 99 samples passed: %v", vs)
	}
}
