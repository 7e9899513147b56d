package checkpoint

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/storage"
)

// encodedSample returns a valid encoded image for corruption tests.
func encodedSample(t *testing.T) []byte {
	t.Helper()
	img := sampleImage(rand.New(rand.NewSource(7)))
	data, err := img.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err != nil {
		t.Fatalf("pristine image does not decode: %v", err)
	}
	return data
}

// TestDecodeRejectsCorruptImages flips bytes at the offsets a torn or
// bit-rotted write would plausibly damage — header, page data, CRC
// trailer — and requires Decode to fail loudly rather than half-restore.
func TestDecodeRejectsCorruptImages(t *testing.T) {
	data := encodedSample(t)
	offsets := map[string]int{
		"header":      0,
		"metadata":    24,
		"page-data":   len(data) / 2,
		"pre-trailer": len(data) - 9,
		"crc-trailer": len(data) - 4,
	}
	for name, off := range offsets {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0xff
		if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s (offset %d): err = %v, want ErrCorrupt", name, off, err)
		}
	}
}

// TestDecodeRejectsSingleBitFlips flips every bit of each stretch of the
// body that the CRC kernel folds differently, and of the trailer, and
// requires the checksum itself, not the structural parse, to reject
// each one. The image is padded until its body takes every kernel path:
// the first 8 bytes (where the initial value is XORed in), the 64-byte
// loop, the 16-byte loop, and a tail under 16 bytes.
func TestDecodeRejectsSingleBitFlips(t *testing.T) {
	img := sampleImage(rand.New(rand.NewSource(10)))
	var data []byte
	for {
		var err error
		if data, err = img.EncodeBytes(); err != nil {
			t.Fatal(err)
		}
		body := len(data) - 8
		if folded := body &^ 15; folded >= 128 && folded%64 >= 16 && body%16 != 0 {
			break
		}
		img.Hostname += "x"
	}
	body := len(data) - 8
	folded := body &^ 15
	for _, r := range []struct {
		name   string
		lo, hi int
	}{
		{"initial-value", 0, 8},
		{"64-byte-loop", 64, 128},
		{"16-byte-loop", folded - folded%64, folded},
		{"tail", folded, body},
		{"trailer", body, len(data)},
	} {
		for off := r.lo; off < r.hi; off++ {
			for bit := 0; bit < 8; bit++ {
				data[off] ^= 1 << bit
				_, err := Decode(data)
				data[off] ^= 1 << bit
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "checksum mismatch") {
					t.Fatalf("%s: bit %d of byte %d flipped: err = %v, want a checksum mismatch", r.name, bit, off, err)
				}
			}
		}
	}
	if _, err := Decode(data); err != nil {
		t.Fatalf("restored image does not decode: %v", err)
	}
}

// TestDecodeRejectsTruncatedImages models torn writes: every prefix of a
// valid image must be rejected. (Exhaustive over a stride to keep the
// test fast; the CRC trailer guarantees the property for all lengths.)
func TestDecodeRejectsTruncatedImages(t *testing.T) {
	data := encodedSample(t)
	lengths := []int{0, 1, 7, 8, len(data) / 4, len(data) / 2, len(data) - 8, len(data) - 1}
	for i := 16; i < len(data); i += 97 {
		lengths = append(lengths, i)
	}
	for _, n := range lengths {
		if _, err := Decode(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncated to %d of %d: err = %v, want ErrCorrupt", n, len(data), err)
		}
	}
	// Trailing garbage is corruption too, not ignorable padding.
	if _, err := Decode(append(append([]byte(nil), data...), 0xaa)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing garbage: want ErrCorrupt")
	}
}

// TestLoadChainSurfacesTornImages plants a torn image on a disk and
// requires the restore path (LoadChain) to report ErrCorrupt instead of
// returning a chain that would half-restore.
func TestLoadChainSurfacesTornImages(t *testing.T) {
	img := sampleImage(rand.New(rand.NewSource(8)))
	img.Mode = ModeFull
	img.Parent = ""
	data, err := img.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	disk := storage.NewLocal("d", costmodel.Default2005(), nil)
	for _, tc := range []struct {
		name string
		keep int
	}{
		{"torn-at-header", 4},
		{"torn-mid-pages", len(data) / 2},
		{"torn-at-crc", len(data) - 3},
	} {
		if err := storage.Write(disk, tc.name, data[:tc.keep], storage.WriteOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadChain(disk, nil, tc.name); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: LoadChain err = %v, want ErrCorrupt", tc.name, err)
		}
	}
	// Sanity: the intact image loads.
	if err := storage.Write(disk, "good", data, storage.WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	chain, err := LoadChain(disk, nil, "good")
	if err != nil || len(chain) != 1 {
		t.Fatalf("intact chain: %v (len %d)", err, len(chain))
	}
}

// TestAuditClassifiesObjects checks the integrity sweep used by E11.
func TestAuditClassifiesObjects(t *testing.T) {
	img := sampleImage(rand.New(rand.NewSource(9)))
	data, err := img.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	disk := storage.NewLocal("d", costmodel.Default2005(), nil)
	if err := storage.Write(disk, "good1", data, storage.WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	if err := storage.Write(disk, "good2", data, storage.WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	if err := storage.Write(disk, "torn", data[:len(data)/3], storage.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := storage.Write(disk, storage.StagingName("inflight"), data[:8], storage.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	intact, torn, staging := Audit(disk)
	if intact != 2 || torn != 1 || staging != 1 {
		t.Fatalf("Audit = (%d, %d, %d), want (2, 1, 1)", intact, torn, staging)
	}
}
