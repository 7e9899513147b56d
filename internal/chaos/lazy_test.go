package chaos

import (
	"fmt"
	"testing"
)

// TestLazyGeneratedMix pins that the sweep width draws both eager and
// lazy restart-before-read failover: the digest checker's lazy-vs-eager
// equivalence proof runs only on lazy seeds.
func TestLazyGeneratedMix(t *testing.T) {
	assertMix(t, func(sp *Spec) string { return fmt.Sprint(sp.LazyRestore) }, "false", "true")
}

// TestLazyRunDeterministic double-runs lazy scenarios: demand-fault
// ordering, prefetch batching, and session settling must all be
// schedule-stable.
func TestLazyRunDeterministic(t *testing.T) {
	confirmRows(t, func(sp *Spec) bool { return sp.LazyRestore })
}
