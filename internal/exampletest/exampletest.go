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
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	func() {
		defer func() { os.Stdout = saved }()
		main()
	}()
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "stdout.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("stdout differs from testdata/stdout.golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
