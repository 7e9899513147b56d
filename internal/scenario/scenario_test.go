package scenario

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/simtime"
)

func TestCatalogIsWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	for _, sc := range Catalog() {
		if sc.Name == "" {
			t.Fatal("unnamed scenario")
		}
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Duration <= 0 {
			t.Fatalf("%s: no duration", sc.Name)
		}
		if sc.Config.Seed == 0 {
			t.Fatalf("%s: no pinned seed", sc.Name)
		}
	}
	if _, ok := Find("fleet-10k"); !ok {
		t.Fatal("fleet-10k missing from catalog")
	}
	if _, ok := Find("no-such"); ok {
		t.Fatal("Find invented a scenario")
	}
}

// A broken build (fencing disabled) must show up in the invariant
// audit Run returns; the scenario gates in internal/experiments judge
// it.
func TestBrokenFencingScenarioCatchesDoubleCommit(t *testing.T) {
	sc, ok := Find("broken-fencing-8")
	if !ok {
		t.Fatal("broken-fencing-8 not in catalog")
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	for _, v := range res.Violations {
		if v.Invariant == "double-commit" {
			return
		}
	}
	t.Fatalf("no double-commit violation despite NoFencing: %v", res.Violations)
}

// An invalid config is an error, not a panic.
func TestInvalidConfigFailsGracefully(t *testing.T) {
	_, err := Run(Scenario{
		Name:     "bad",
		Config:   cluster.FleetConfig{Nodes: 1, Shards: 1},
		Duration: 10 * simtime.Millisecond,
	})
	if err == nil {
		t.Fatal("invalid config did not fail")
	}
}
