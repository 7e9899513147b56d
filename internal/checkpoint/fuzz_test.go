package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/simos/fs"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
	"repro/internal/simos/sig"
)

// corpusImage exercises every section of the format: multiple threads,
// sparse extents, a deleted-but-open FD with contents, dispositions,
// pending/blocked signals, sockets, and shared memory.
func corpusImage() *Image {
	return &Image{
		Mechanism: "crak",
		Hostname:  "node0",
		TakenAt:   12345678,
		Seq:       3,
		Parent:    "ckpt/pid2/seq2",
		Mode:      ModeIncremental,
		PID:       2,
		PPID:      1,
		VPID:      7,
		Exe:       "/bin/sparse",
		Args:      []string{"sparse", "--mib", "8"},
		Brk:       0x40_0000,
		Threads: []ThreadRecord{
			{TID: 1, Regs: proc.Regs{PC: 41, SP: 0x7fff_0000, G: [proc.NumGRegs]uint64{1, 2, 3}}},
			{TID: 2, Regs: proc.Regs{PC: 9, SP: 0x7ffe_0000}},
		},
		VMAs: []VMASection{
			{Start: 0x1000, Length: 0x2000, Kind: mem.KindHeap, Name: "[heap]", Prot: mem.ProtRead | mem.ProtWrite,
				Extents: []Extent{{Addr: 0x1000, Data: []byte("abcd")}, {Addr: 0x1800, Data: []byte{0, 1, 2}}}},
			{Start: 0x9000, Length: 0x1000, Kind: mem.KindAnon, Name: "", Prot: mem.ProtRead},
		},
		FDs: []FDRecord{
			{FD: 0, Path: "/dev/null", Flags: fs.ORead, Offset: 0},
			{FD: 3, Path: "/tmp/scratch", Flags: fs.OWrite, Offset: 512, Deleted: true, Contents: []byte("orphaned")},
		},
		SigDisps: []SigDispRecord{
			{Sig: sig.SIGUSR1, Kind: DispHandler, HandlerName: "usr1", NonReentrant: true},
			{Sig: sig.SIGTERM, Kind: DispIgnore},
		},
		SigPending: []sig.Signal{sig.SIGUSR1},
		SigBlocked: []sig.Signal{sig.SIGTERM, sig.SIGUSR2},
		Sockets:    []SocketRecord{{ID: 4, Peer: "node1:9090"}},
		Shm:        map[string][]byte{"seg-a": []byte("shared"), "seg-b": nil},
	}
}

func corpusBytes(tb testing.TB) []byte {
	b, err := corpusImage().EncodeBytes()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzImageDecode throws arbitrary bytes at the decoder: it must return
// an image or ErrCorrupt, never panic, and never let a forged length
// prefix allocate past the input that backs it.
func FuzzImageDecode(f *testing.F) {
	valid := corpusBytes(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("short"))
	f.Add(valid[:len(valid)/2])                         // truncated mid-body
	f.Add(append([]byte(nil), valid[:len(valid)-1]...)) // truncated trailer
	flipped := append([]byte(nil), valid...)
	flipped[10] ^= 0xff
	f.Add(flipped) // body corruption → CRC mismatch

	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Decode(data)
		if err == nil && img == nil {
			t.Fatal("Decode returned nil image with nil error")
		}
	})
}

// FuzzImageRoundTrip asserts the decode→encode→decode fixed point: any
// input the decoder accepts must re-encode to bytes that decode to the
// same image, and the second encoding must equal the first (canonical
// form). Decode parses in place, so it must also leave its input
// untouched, accepted or not.
func FuzzImageRoundTrip(f *testing.F) {
	f.Add(corpusBytes(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		orig := append([]byte(nil), data...)
		img, err := Decode(data)
		if !bytes.Equal(data, orig) {
			t.Fatal("Decode modified its input")
		}
		if err != nil {
			return
		}
		enc, err := img.EncodeBytes()
		if err != nil {
			t.Fatalf("re-encode of accepted image failed: %v", err)
		}
		img2, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode of re-encoding failed: %v", err)
		}
		if !reflect.DeepEqual(img, img2) {
			t.Fatalf("round trip changed image:\n %+v\n %+v", img, img2)
		}
		enc2, err := img2.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("encoding is not a fixed point")
		}
	})
}

// TestDecodeBoundsShmAllocation pins the allocation-bound fix: a forged
// image claiming 2^32-1 shared-memory segments in a few hundred bytes
// must fail with ErrCorrupt without pre-allocating for the claim.
func TestDecodeBoundsShmAllocation(t *testing.T) {
	img := corpusImage()
	img.Shm = nil
	enc, err := img.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	// The Shm count is the last u32 before the 8-byte CRC trailer.
	forged := append([]byte(nil), enc...)
	off := len(forged) - 8 - 4
	forged[off], forged[off+1], forged[off+2], forged[off+3] = 0xff, 0xff, 0xff, 0xff
	rewriteCRC(forged)

	before := totalAlloc()
	if _, err := Decode(forged); err == nil {
		t.Fatal("forged Shm count decoded cleanly")
	}
	if grew := totalAlloc() - before; grew > 1<<20 {
		t.Fatalf("decoding a %d-byte forgery allocated %d bytes", len(forged), grew)
	}
}

// rewriteCRC recomputes the trailer after a test mutates the body.
func rewriteCRC(data []byte) {
	body := data[:len(data)-8]
	binary.LittleEndian.PutUint64(data[len(data)-8:], crc64.Checksum(body, crcTable))
}

// totalAlloc reads the monotonic cumulative allocation counter, so the
// difference across a call cannot go negative when GC runs in between.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
