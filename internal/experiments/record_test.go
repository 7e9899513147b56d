package experiments

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/trace"
)

// update re-pins the committed goldens (the quick-size sim records and
// the E9 table) from this run instead of comparing with them.
var update = flag.Bool("update", false, "re-pin testdata/quick_sim.json and testdata/e9.golden")

// quickPin holds every sim-clock record E1–E8 and E10–E20 produce at
// quick size, in experiment order.
const quickPin = "testdata/quick_sim.json"

// gate runs one experiment at quick size and fails on every violation
// of its Gates rows, on any value that is not finite or has no clock,
// and on every sim-clock record that differs from quickPin.
func gate(t *testing.T, run func(quick bool) []Record) {
	t.Helper()
	recs := run(true)
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
	pinRecords(t, recs)
}

// pinRecords compares recs' sim-clock records with quickPin and names
// each one that moved; with -update it rewrites this experiment's block
// of quickPin instead.
func pinRecords(t *testing.T, recs []Record) {
	t.Helper()
	var pinned []Record
	blob, err := os.ReadFile(quickPin)
	switch {
	case err == nil:
		if err := json.Unmarshal(blob, &pinned); err != nil {
			t.Fatalf("%s: %v", quickPin, err)
		}
	case !*update || !errors.Is(err, fs.ErrNotExist):
		t.Fatal(err)
	}
	if !*update {
		for _, d := range SimDiff(pinned, recs) {
			t.Errorf("moved from %s: %s", quickPin, d)
		}
		return
	}
	byExp := map[string][]Record{}
	for _, r := range pinned {
		byExp[r.Exp] = append(byExp[r.Exp], r)
	}
	byExp[recs[0].Exp] = nil
	for _, r := range recs {
		if r.Clock == "sim" {
			byExp[r.Exp] = append(byExp[r.Exp], r)
		}
	}
	var out []Record
	for _, e := range All {
		out = append(out, byExp[fmt.Sprintf("E%d", e.N)]...)
	}
	writePin(t, quickPin, out)
}

// writePin writes recs to path as MarshalRecords renders them.
func writePin(t *testing.T, path string, recs []Record) {
	t.Helper()
	blob, err := MarshalRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// pinText compares got with the golden file at path, or rewrites the
// golden with -update.
func pinText(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("differs from %s (go test -update re-pins):\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestGates: every E14 and E16–E20 gate passes at quick size. Check
// also reports a gate that matches no record, so a renamed metric
// cannot orphan its gate. E1–E13 and E15 each have a claim test of
// their own.
func TestGates(t *testing.T) {
	for _, e := range All {
		if e.N >= 14 && e.N != 15 {
			gate(t, e.Run)
		}
	}
}

// passingRecords returns one record per gate, each exactly on the
// gate's finite bound, with every * of the gate's case pattern filled
// in.
func passingRecords(t *testing.T) []Record {
	var recs []Record
	for _, g := range Gates {
		v := g.Max
		if math.IsInf(v, 1) {
			v = g.Min
		}
		cs := strings.ReplaceAll(g.Case, "*", "x")
		if !g.matches(Record{Exp: g.Exp, Case: cs, Metric: g.Metric}) {
			t.Fatalf("gate %v: built case %q does not match", g, cs)
		}
		recs = append(recs, Record{Exp: g.Exp, Case: cs, Metric: g.Metric, Clock: "sim", N: 1, Value: v})
	}
	return recs
}

// TestCheckReportsEachGate pushes each gate's record one float step
// past each of its finite bounds and demands exactly that gate back.
func TestCheckReportsEachGate(t *testing.T) {
	if vs := Check(passingRecords(t)); len(vs) != 0 {
		t.Fatalf("records on their bounds fail: %v", vs)
	}
	for i, g := range Gates {
		var past []float64
		if !math.IsInf(g.Min, -1) {
			past = append(past, math.Nextafter(g.Min, math.Inf(-1)))
		}
		if !math.IsInf(g.Max, 1) {
			past = append(past, math.Nextafter(g.Max, math.Inf(1)))
		}
		for _, v := range past {
			recs := passingRecords(t)
			recs[i].Value = v
			vs := Check(recs)
			if len(vs) != 1 || vs[0].Gate != g || vs[0].Record == nil || *vs[0].Record != recs[i] {
				t.Errorf("gate %v at %v: got %v", g, v, vs)
			}
		}
	}
}

func TestCheckFailsOnError(t *testing.T) {
	rec := &recorder{exp: "E16"}               // E16's only gate is its errors row
	rec.ratio("depth=1", "vs_full", "x", 1, 0) // a zero denominator is an error
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
