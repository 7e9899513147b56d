package scenario_test

import (
	"path"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// check records sc through experiments and returns the violations of
// its Gates rows: every "scenario" row whose case pattern matches sc's
// name. Rows of other scenarios have no record here and are skipped.
func check(t *testing.T, sc scenario.Scenario) []experiments.Violation {
	t.Helper()
	recs := experiments.ScenarioRecords(sc)
	for _, r := range recs {
		t.Log(r)
	}
	var out []experiments.Violation
	for _, v := range experiments.Check(recs) {
		if mine, _ := path.Match(v.Gate.Case, sc.Name); v.Record != nil || mine {
			out = append(out, v)
		}
	}
	return out
}

// pass fails t on every violation of sc's Gates rows.
func pass(t *testing.T, sc scenario.Scenario) {
	t.Helper()
	for _, v := range check(t, sc) {
		t.Error(v)
	}
}

// TestFastScenariosPass is the CI gate: every catalog scenario but
// fleet-10k (TestFleet10kScenarioPasses) passes its rows of
// experiments.Gates, and every scenario row names a catalog scenario,
// so together the two tests judge the whole catalog against every row.
func TestFastScenariosPass(t *testing.T) {
	for _, g := range experiments.Gates {
		if g.Exp != "scenario" || g.Case == "*" {
			continue
		}
		if _, ok := scenario.Find(g.Case); !ok {
			t.Errorf("gate %v names no catalog scenario", g)
		}
	}
	for _, sc := range scenario.Catalog() {
		if sc.Name == "fleet-10k" {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) { pass(t, sc) })
	}
}

// The acceptance headline: the 10k-node scenario passes every one of
// its rows, one armed timer per shard (64) included.
func TestFleet10kScenarioPasses(t *testing.T) {
	sc, ok := scenario.Find("fleet-10k")
	if !ok {
		t.Fatal("fleet-10k not in catalog")
	}
	pass(t, sc)
}

// The gates must catch a scenario that falls short, not just run it:
// smoke-64 cut to a fifth of its duration misses its checkpoint floor,
// and Check names that row.
func TestCriteriaFailureIsReported(t *testing.T) {
	sc, _ := scenario.Find("smoke-64")
	sc.Duration /= 5
	for _, v := range check(t, sc) {
		if v.Gate.Metric == "checkpoints" && v.Record != nil {
			t.Log(v)
			return
		}
	}
	t.Fatal("a short smoke-64 passed its checkpoint floor")
}
