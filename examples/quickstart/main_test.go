package main

import (
	"testing"

	"repro/internal/exampletest"
)

// TestMainOutput pins the example's stdout against testdata/stdout.golden.
func TestMainOutput(t *testing.T) { exampletest.Golden(t, main) }
