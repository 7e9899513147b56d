package chaos

import "testing"

// TestChaosCompactionDeterministic: folding is background server-side
// work, but it ticks on the same simulated clock as everything else —
// two runs of a compaction seed must still produce equal digests.
func TestChaosCompactionDeterministic(t *testing.T) {
	confirmRows(t, func(sp *Spec) bool { return sp.CompactAfter > 0 })
}
