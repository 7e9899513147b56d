package main

import (
	"os"
	"testing"

	"repro/internal/exampletest"
)

// TestExtendedTableOutput pins `crsurvey -extended` (Figure 1, Table 1
// with the user-level schemes and TICK as extra rows, and the diff
// against the paper) against testdata/stdout.golden. After an intended
// change, `go run . -extended > testdata/stdout.golden` re-pins it.
func TestExtendedTableOutput(t *testing.T) {
	saved := os.Args
	defer func() { os.Args = saved }()
	os.Args = []string{"crsurvey", "-extended"}
	exampletest.Golden(t, main)
}
