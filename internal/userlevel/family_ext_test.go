package userlevel_test

import (
	"testing"

	"repro/internal/mechanism/mechtest"
	"repro/internal/taxonomy"
)

// TestLifecycleUserMechanisms runs the user-level rows of the family
// table: one pinned checkpoint/restart round trip per scheme, run to
// completion on a second machine, and each refusal's error kind.
func TestLifecycleUserMechanisms(t *testing.T) { mechtest.Run(t, taxonomy.UserLevel) }
