package checkpoint

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/crc"
	"repro/internal/simos/mem"
)

func TestObjectNameEpoch(t *testing.T) {
	img := &Image{PID: 2, Seq: 5, Epoch: 3}
	if got := img.ObjectName(); got != "ckpt/e3/pid2/seq5" {
		t.Fatalf("ObjectName = %q", got)
	}
	img.Epoch = 0
	if got := img.ObjectName(); got != "ckpt/pid2/seq5" {
		t.Fatalf("legacy ObjectName = %q", got)
	}
}

func TestCodecRoundTripEpoch(t *testing.T) {
	img := sampleImage(rand.New(rand.NewSource(11)))
	img.Epoch = 42
	data, err := img.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 42 {
		t.Fatalf("Epoch = %d after round trip", got.Epoch)
	}
	img.handlers = nil
	if !reflect.DeepEqual(img, got) {
		t.Fatal("round trip mismatch with epoch set")
	}
}

// Pre-chain version-1 images (no Epoch field) must still decode, with
// Epoch zero.
func TestDecodeLegacyV1(t *testing.T) {
	img := sampleImage(rand.New(rand.NewSource(12)))
	img.Epoch = 0
	data, err := img.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	v1 := legacyV1(img, data)

	got, err := Decode(v1)
	if err != nil {
		t.Fatalf("v1 image rejected: %v", err)
	}
	if got.Epoch != 0 {
		t.Fatalf("v1 Epoch = %d, want 0", got.Epoch)
	}
	img.handlers = nil
	if !reflect.DeepEqual(img, got) {
		t.Fatal("v1 round trip mismatch")
	}

	// Versions beyond the current one stay rejected.
	binary.LittleEndian.PutUint16(data[4:6], imageVersion+1)
	binary.LittleEndian.PutUint64(data[len(data)-8:], crc.Checksum(data[:len(data)-8]))
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("future version err = %v, want ErrCorrupt", err)
	}
}

// legacyV1 builds the version-1 encoding of img (Epoch zero) from its
// v2 encoding data by surgery: patch the version word, splice out the 8
// epoch bytes, recompute the CRC.
func legacyV1(img *Image, data []byte) []byte {
	// Header layout: magic u32, version u16, Mechanism str, Hostname str,
	// TakenAt i64, Seq u64, then the v2 Epoch u64.
	epochOff := 4 + 2 + (4 + len(img.Mechanism)) + (4 + len(img.Hostname)) + 8 + 8
	body := data[:len(data)-8]
	v1 := make([]byte, 0, len(body)-8)
	v1 = append(v1, body[:epochOff]...)
	v1 = append(v1, body[epochOff+8:]...)
	binary.LittleEndian.PutUint16(v1[4:6], 1)
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], crc.Checksum(v1))
	return append(v1, trailer[:]...)
}

// stubTracker hands out a scripted range set per Collect.
type stubTracker struct {
	rounds [][]Range
	calls  int
}

func (s *stubTracker) Name() string { return "stub" }
func (s *stubTracker) Arm() error   { return nil }
func (s *stubTracker) Stats() TrackerStats {
	return TrackerStats{}
}
func (s *stubTracker) Close() {}
func (s *stubTracker) Collect() ([]Range, error) {
	rs := s.rounds[s.calls%len(s.rounds)]
	s.calls++
	return rs, nil
}

// A collection whose capture fails must not vanish: the chain folds it
// into the next Collect until a Commit marks a round durable.
func TestDeltaChainCarriesFailedRounds(t *testing.T) {
	pg := func(n int) mem.Addr { return mem.Addr(n * mem.PageSize) }
	c := NewDeltaChain(0)
	if err := c.Arm(func() Tracker {
		return &stubTracker{rounds: [][]Range{
			{{Addr: pg(0), Length: 16 * mem.PageSize}},
			{{Addr: pg(1), Length: mem.PageSize}},
			{{Addr: pg(5), Length: mem.PageSize}},
			{{Addr: pg(9), Length: mem.PageSize}},
		}}
	}); err != nil {
		t.Fatal(err)
	}
	collect := func(wantRebase bool) []Range {
		t.Helper()
		trk, rebase := c.Next()
		if trk == nil || rebase != wantRebase {
			t.Fatalf("Next = %v, %v; want a tracker, rebase %v", trk, rebase, wantRebase)
		}
		rs, err := trk.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}

	// The rebase collects everything and commits.
	collect(true)
	c.Commit(&Image{Mode: ModeFull})

	// Round 1 collected but its capture fails (no Commit).
	if r1 := collect(false); len(r1) != 1 {
		t.Fatalf("round 1: %v", r1)
	}

	// Round 2 must carry round 1's page alongside its own.
	want := []Range{
		{Addr: pg(1), Length: mem.PageSize},
		{Addr: pg(5), Length: mem.PageSize},
	}
	if r2 := collect(false); !reflect.DeepEqual(r2, want) {
		t.Fatalf("round 2 = %v, want %v", r2, want)
	}
	c.Commit(&Image{Mode: ModeIncremental}) // round 2's capture published durably

	// Round 3 starts clean: only its own dirty page.
	if r3 := collect(false); !reflect.DeepEqual(r3, []Range{{Addr: pg(9), Length: mem.PageSize}}) {
		t.Fatalf("round 3 = %v", r3)
	}
}

// mergeRanges coalesces adjacent pages and deduplicates overlap.
func TestMergeRanges(t *testing.T) {
	pg := func(n int) mem.Addr { return mem.Addr(n * mem.PageSize) }
	a := []Range{{Addr: pg(1), Length: 2 * mem.PageSize}}
	b := []Range{{Addr: pg(2), Length: 2 * mem.PageSize}, {Addr: pg(7), Length: mem.PageSize}}
	got := mergeRanges(a, b)
	want := []Range{
		{Addr: pg(1), Length: 3 * mem.PageSize},
		{Addr: pg(7), Length: mem.PageSize},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mergeRanges = %v, want %v", got, want)
	}
	if got := mergeRanges(nil, b); !reflect.DeepEqual(got, b) {
		t.Fatalf("mergeRanges(nil, b) = %v", got)
	}
}
