// Package exampletest pins an example program's stdout against a
// committed golden. Every example is seeded, so its output is exact: a
// diff is a behaviour change in the code the example drives.
package exampletest

import (
	"os"
	"path/filepath"
	"testing"
)

// Golden runs main with os.Stdout redirected to a file and compares what
// it printed with testdata/stdout.golden. After an intended output
// change, regenerate the golden from the example's directory with
// `go run . > testdata/stdout.golden`.
func Golden(t *testing.T, main func()) {
	t.Helper()
	File(t, filepath.Join("testdata", "stdout.golden"), false, main)
}

// File is Golden against the golden at path. With update it writes what
// run printed to path instead of comparing.
func File(t *testing.T, path string, update bool, run func()) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	func() {
		defer func() { os.Stdout = saved }()
		run()
	}()
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("stdout differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
