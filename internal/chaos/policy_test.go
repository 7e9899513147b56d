package chaos

import (
	"testing"
)

// TestPolicyForcedSweepDeterministic double-runs a handful of forced
// youngdaly+liveness scenarios: the Young/Daly cadence and the liveness
// exclusion set must both be schedule-stable or replay lines are
// worthless.
func TestPolicyForcedSweepDeterministic(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 30 && checked < 4; seed++ {
		sp := Generate(seed)
		if !sp.Incremental {
			continue
		}
		sp.Policy = "youngdaly"
		sp.Liveness = true
		checked++
		if ok, a, b := Confirm(sp); !ok {
			t.Fatalf("policy seed %d nondeterministic: %#x vs %#x", seed, a.Digest, b.Digest)
		}
	}
	if checked == 0 {
		t.Fatal("no incremental seed in [1,30]")
	}
}

// TestPolicySpecValidation rejects policy specs the executor cannot
// run, including the retired "adaptive" cadence.
func TestPolicySpecValidation(t *testing.T) {
	base := Generate(1)

	for _, bad := range []string{"sometimes", "adaptive"} {
		sp := base.Clone()
		sp.Policy = bad
		if sp.validate() == nil {
			t.Errorf("cadence policy %q accepted", bad)
		}
	}

	sp := base.Clone()
	sp.Incremental = false
	sp.Liveness = true
	if sp.validate() == nil {
		t.Error("liveness without incremental accepted")
	}

	for _, ok := range []string{"", "fixed", "youngdaly"} {
		sp = base.Clone()
		sp.Policy = ok
		if err := sp.validate(); err != nil {
			t.Errorf("policy %q rejected: %v", ok, err)
		}
	}
}
