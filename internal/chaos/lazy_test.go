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
