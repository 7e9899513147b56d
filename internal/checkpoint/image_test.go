package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/crc"
	"repro/internal/simos/fs"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
	"repro/internal/simos/sig"
)

func sampleImage(rng *rand.Rand) *Image {
	img := &Image{
		Mechanism: "blcr",
		Hostname:  "node3",
		TakenAt:   12345678,
		Seq:       7,
		Parent:    "ckpt/pid4/seq6",
		Mode:      ModeIncremental,
		PID:       4,
		PPID:      1,
		Exe:       "dense[mib=8]",
		Args:      []string{"-x", "1"},
		Brk:       0x601000,
		Threads: []ThreadRecord{
			{TID: 1, Regs: proc.Regs{PC: 99, SP: 0x7ffeff00, G: [proc.NumGRegs]uint64{1, 2, 3, 4, 5, 6, 7, 8}}},
			{TID: 2, Regs: proc.Regs{PC: 5}},
		},
		FDs: []FDRecord{
			{FD: 0, Path: "/dev/null", Flags: fs.ORead, Offset: 0},
			{FD: 3, Path: "/out", Flags: fs.OWrite, Offset: 512, Deleted: true, Contents: []byte("gone but saved")},
		},
		SigDisps: []SigDispRecord{
			{Sig: sig.SIGUSR1, Kind: DispHandler, HandlerName: "ckpt-handler", NonReentrant: true},
			{Sig: sig.SIGALRM, Kind: DispIgnore},
		},
		SigPending: []sig.Signal{sig.SIGUSR2},
		SigBlocked: []sig.Signal{sig.SIGTERM},
		Sockets:    []SocketRecord{{ID: 2, Peer: "db:99"}},
		Shm:        map[string][]byte{"seg": {9, 8, 7}},
	}
	for v := 0; v < 2; v++ {
		sec := VMASection{
			Start:  mem.Addr(0x1000_0000 + v*0x100000),
			Length: 16 * mem.PageSize,
			Kind:   mem.KindAnon,
			Name:   "arena",
			Prot:   mem.ProtRW,
		}
		for e := 0; e < 3; e++ {
			data := make([]byte, 1+rng.Intn(2*mem.PageSize))
			rng.Read(data)
			sec.Extents = append(sec.Extents, Extent{
				Addr: sec.Start + mem.Addr(e*4*mem.PageSize),
				Data: data,
			})
		}
		img.VMAs = append(img.VMAs, sec)
	}
	return img
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	img := sampleImage(rand.New(rand.NewSource(1)))
	data, err := img.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	// handlers is in-memory only; clear for comparison.
	img.handlers = nil
	if !reflect.DeepEqual(img, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, img)
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	img := sampleImage(rand.New(rand.NewSource(2)))
	data, _ := img.EncodeBytes()
	for _, pos := range []int{0, 10, len(data) / 2, len(data) - 9} {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0xFF
		if _, err := Decode(mut); err == nil {
			t.Fatalf("corruption at byte %d not detected", pos)
		}
	}
	if _, err := Decode(data[:4]); err == nil {
		t.Fatal("truncated image accepted")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty image accepted")
	}
}

func TestDecodeRejectsTruncatedTail(t *testing.T) {
	img := sampleImage(rand.New(rand.NewSource(3)))
	data, _ := img.EncodeBytes()
	// Chop the middle out but keep length ≥ 8: CRC must fail.
	if _, err := Decode(data[:len(data)-20]); err == nil {
		t.Fatal("truncated image accepted")
	}
}

func TestPayloadAccounting(t *testing.T) {
	img := &Image{
		VMAs: []VMASection{
			{Extents: []Extent{{Data: make([]byte, 100)}, {Data: make([]byte, 28)}}},
			{Extents: []Extent{{Data: make([]byte, 72)}}},
		},
	}
	if img.PayloadBytes() != 200 {
		t.Fatalf("PayloadBytes = %d", img.PayloadBytes())
	}
	if img.NumExtents() != 3 {
		t.Fatalf("NumExtents = %d", img.NumExtents())
	}
}

func TestObjectName(t *testing.T) {
	img := &Image{PID: 12, Seq: 3}
	if img.ObjectName() != "ckpt/pid12/seq3" {
		t.Fatalf("ObjectName = %q", img.ObjectName())
	}
}

func TestEncodeReportsBytes(t *testing.T) {
	img := sampleImage(rand.New(rand.NewSource(4)))
	var buf bytes.Buffer
	n, err := img.Encode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Fatalf("Encode returned %d, wrote %d", n, buf.Len())
	}
	if n <= img.PayloadBytes() {
		t.Fatal("encoded size should exceed payload (headers)")
	}
}

// Property: encode→decode is the identity on random well-formed images.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		img := sampleImage(rand.New(rand.NewSource(seed)))
		data, err := img.EncodeBytes()
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		img.handlers = nil
		return reflect.DeepEqual(img, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-bit flip is detected.
func TestQuickCodecBitFlips(t *testing.T) {
	img := sampleImage(rand.New(rand.NewSource(9)))
	data, _ := img.EncodeBytes()
	f := func(pos uint32, bit uint8) bool {
		mut := append([]byte(nil), data...)
		mut[pos%uint32(len(mut))] ^= 1 << (bit % 8)
		_, err := Decode(mut)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Decode never panics on arbitrary input — malformed images are
// rejected with errors, not crashes.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %d bytes: %v", len(data), r)
			}
		}()
		img, err := Decode(data)
		// Either an error or a valid image; both are acceptable.
		return err != nil || img != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping the trailer to match a truncated body still fails
// the structural parse (belt and braces beyond the CRC).
func TestDecodeTruncatedWithFixedCRC(t *testing.T) {
	img := sampleImage(rand.New(rand.NewSource(5)))
	data, _ := img.EncodeBytes()
	body := data[:len(data)/2]
	// Recompute a valid CRC for the truncated body.
	sum := crc.Checksum(body)
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], sum)
	mut := append(append([]byte(nil), body...), trailer[:]...)
	if _, err := Decode(mut); err == nil {
		t.Fatal("structurally truncated image accepted")
	}
}

// TestDecodeAliasesAreCapacityClipped pins the in-place parse contract:
// every byte field Decode returns is a sub-slice of the verified input
// with cap == len, so appending to one reallocates instead of writing
// over the input or the field encoded after it.
func TestDecodeAliasesAreCapacityClipped(t *testing.T) {
	data := corpusBytes(t)
	orig := append([]byte(nil), data...)
	img, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(append([]byte(nil), data...))
	if err != nil {
		t.Fatal(err)
	}

	fields := map[string][]byte{}
	for i, v := range img.VMAs {
		for j, e := range v.Extents {
			fields[fmt.Sprintf("VMAs[%d].Extents[%d].Data", i, j)] = e.Data
		}
	}
	for k, v := range img.Shm {
		fields[fmt.Sprintf("Shm[%q]", k)] = v
	}
	for i, f := range img.FDs {
		if f.Contents != nil {
			fields[fmt.Sprintf("FDs[%d].Contents", i)] = f.Contents
		}
	}
	if len(fields) < 5 {
		t.Fatalf("corpus decoded only %d byte fields; want every kind covered", len(fields))
	}
	for name, b := range fields {
		if cap(b) != len(b) {
			t.Errorf("%s: cap %d, len %d", name, cap(b), len(b))
		}
		_ = append(b, 0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55)
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("appending to a decoded field changed the input")
	}
	if !reflect.DeepEqual(img, want) {
		t.Fatal("appending to a decoded field changed another field")
	}
}

// TestEncodeBytesExactSize pins the exact-size encode: over the codec
// corpus, EncodeBytes returns exactly what Encode streams into a
// bytes.Buffer, in a buffer with no spare capacity, and the sharded
// encoder agrees at every width.
func TestEncodeBytesExactSize(t *testing.T) {
	corpus := map[string]*Image{"corpus": corpusImage()}
	for seed := int64(0); seed < 20; seed++ {
		corpus[fmt.Sprintf("quick-%d", seed)] = sampleImage(rand.New(rand.NewSource(seed)))
	}

	v1src := sampleImage(rand.New(rand.NewSource(12)))
	v1src.Epoch = 0
	enc, err := v1src.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if corpus["v1-reencoded"], err = Decode(legacyV1(v1src, enc)); err != nil {
		t.Fatal(err)
	}

	zeroExt := sampleImage(rand.New(rand.NewSource(21)))
	for i := range zeroExt.VMAs {
		zeroExt.VMAs[i].Extents = nil
	}
	corpus["zero-extent"] = zeroExt
	emptyVMA := sampleImage(rand.New(rand.NewSource(22)))
	emptyVMA.VMAs = nil
	corpus["empty-vma"] = emptyVMA
	corpus["shm"] = &Image{Shm: map[string][]byte{"a": {1, 2, 3}, "b": nil, "c": make([]byte, 3*shardTargetBytes)}}
	corpus["deleted-fd"] = &Image{FDs: []FDRecord{
		{FD: 3, Path: "/gone", Deleted: true, Contents: make([]byte, shardTargetBytes+5)},
		{FD: 4, Path: "/empty", Deleted: true, Contents: []byte{}},
	}}

	for name, img := range corpus {
		var buf bytes.Buffer
		if _, err := img.Encode(&buf); err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		got, err := img.EncodeBytes()
		if err != nil {
			t.Fatalf("%s: EncodeBytes: %v", name, err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("%s: EncodeBytes (%d bytes) differs from Encode (%d bytes)", name, len(got), buf.Len())
		}
		if cap(got) != len(got) {
			t.Fatalf("%s: EncodeBytes cap %d, len %d", name, cap(got), len(got))
		}
		for w := 1; w <= 8; w++ {
			par, err := img.EncodeParallelBytes(w)
			if err != nil {
				t.Fatalf("%s: EncodeParallelBytes(%d): %v", name, w, err)
			}
			if !bytes.Equal(par, got) {
				t.Fatalf("%s: EncodeParallelBytes(%d) differs from EncodeBytes", name, w)
			}
		}
	}
}
