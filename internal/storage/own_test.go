package storage

import (
	"bytes"
	"testing"
)

// writeJoined stores the parts under name through one writer. Joining
// them grows the writer's buffer by append, so the stored slice has
// spare capacity past its length.
func writeJoined(t *testing.T, tgt Target, name string, parts ...[]byte) {
	t.Helper()
	w, err := tgt.Create(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedReadsAreAppendSafe: reads return the stored bytes
// themselves, so appending to one reader's result must reach neither the
// stored object nor another reader's result. The erasure read decodes
// into a fresh buffer; it is here so every read path states the contract.
func TestSharedReadsAreAppendSafe(t *testing.T) {
	head, tail := payload(1000), []byte("tail")
	want := append(append([]byte(nil), head...), tail...)
	check := func(t *testing.T, read func() ([]byte, error)) {
		t.Helper()
		a, err := read()
		if err != nil {
			t.Fatal(err)
		}
		b, _ := read()
		a, b = append(a, 'A'), append(b, 'B')
		if a[len(want)] != 'A' || b[len(want)] != 'B' {
			t.Fatal("two readers' appends landed in one array")
		}
		if got, _ := read(); !bytes.Equal(got, want) {
			t.Fatal("an append to a read result changed the stored object")
		}
	}
	for kind, tc := range targets(t) {
		writeJoined(t, tc.T, "obj", head, tail)
		t.Run("ReadObject/"+kind, func(t *testing.T) {
			check(t, func() ([]byte, error) { return tc.T.ReadObject("obj", nil) })
		})
		t.Run("ReadBatch/"+kind, func(t *testing.T) {
			check(t, func() ([]byte, error) {
				out, err := tc.T.(BatchReader).ReadBatch([]string{"obj"}, nil)
				if err != nil {
					return nil, err
				}
				return out[0], nil
			})
		})
	}
	for name, r := range replicatedSets(t) {
		writeJoined(t, r, "obj", head, tail)
		t.Run(name, func(t *testing.T) {
			check(t, func() ([]byte, error) { return r.ReadObject("obj", nil) })
		})
	}
}

// TestWriterKeepsOnlyTheSliceItIsHanded: a writer keeps the first slice
// it is handed, so appending a second buffer must not spill into the
// caller's array past that slice, and the object is the two joined.
func TestWriterKeepsOnlyTheSliceItIsHanded(t *testing.T) {
	tgts := map[string]Target{}
	for kind, tc := range targets(t) {
		tgts[kind] = tc.T
	}
	for name, r := range replicatedSets(t) {
		tgts[name] = r
	}
	for name, tgt := range tgts {
		t.Run(name, func(t *testing.T) {
			arr := bytes.Repeat([]byte{0xee}, 64)
			first, second := arr[:16], []byte("second buffer")
			writeJoined(t, tgt, "obj", first, second)
			if !bytes.Equal(arr[16:], bytes.Repeat([]byte{0xee}, 48)) {
				t.Fatalf("caller's array past the first slice changed: % x", arr[16:])
			}
			got, err := tgt.ReadObject("obj", nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := append(bytes.Repeat([]byte{0xee}, 16), second...); !bytes.Equal(got, want) {
				t.Fatalf("object = % x, want % x", got, want)
			}
		})
	}
}
