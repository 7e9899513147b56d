// Package checkpoint is the core checkpoint/restart engine shared by every
// mechanism in the survey: the image format, state accessors (kernel-direct
// vs syscall-based — the §3/§4 divide), dirty trackers (full, kernel page
// fault, user mprotect+SIGSEGV, probabilistic block hashing, adaptive block
// sizing), the capture engine, and the restore engine with incremental-chain
// reconstruction.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/crc"
	"repro/internal/simos/fs"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
	"repro/internal/simos/sig"
	"repro/internal/simtime"
)

// Mode distinguishes full images from incremental deltas.
type Mode uint8

// Image modes.
const (
	ModeFull Mode = iota
	ModeIncremental
)

func (m Mode) String() string {
	if m == ModeIncremental {
		return "incremental"
	}
	return "full"
}

// Extent is a run of captured memory contents.
type Extent struct {
	Addr mem.Addr
	Data []byte
}

// VMASection describes one mapped region and the extents captured from it.
type VMASection struct {
	Start   mem.Addr
	Length  uint64
	Kind    mem.VMAKind
	Name    string
	Prot    mem.Prot
	Extents []Extent // sorted by Addr
}

// ThreadRecord is one thread's register file.
type ThreadRecord struct {
	TID  proc.TID
	Regs proc.Regs
}

// FDRecord is one descriptor. Contents is non-nil only for deleted-but-open
// files captured by mechanisms that can reach the inode (UCLiK).
type FDRecord struct {
	FD       int
	Path     string
	Flags    fs.OpenFlags
	Offset   int64
	Deleted  bool
	Contents []byte
}

// Disposition kinds for SigDispRecord.
const (
	DispDefault uint8 = iota
	DispIgnore
	DispHandler
)

// SigDispRecord is one signal disposition. Handler code cannot be
// serialized; HandlerName keys a resolver at restore time, and the live
// pointer is carried in Image.handlers for same-process restores.
type SigDispRecord struct {
	Sig          sig.Signal
	Kind         uint8
	HandlerName  string
	NonReentrant bool
}

// SocketRecord describes a kernel socket owned by the process, captured
// only by virtualizing mechanisms (ZAP pods).
type SocketRecord struct {
	ID   int
	Peer string
}

// Image is one checkpoint of one process.
type Image struct {
	Mechanism string
	Hostname  string
	TakenAt   simtime.Time
	Seq       uint64
	Parent    string // object name of the previous image in the chain
	Mode      Mode
	// Epoch namespaces the chain's object names by incarnation (the
	// fencing epoch that admitted the process). Fresh kernels reuse PIDs
	// from 1, so without it a new incarnation's images would overwrite a
	// prior chain's ancestors while every parent link still matched.
	// Zero means un-namespaced (single-incarnation / legacy) names.
	Epoch uint64

	PID  proc.PID
	PPID proc.PID
	// VPID is the pod-virtualized PID (0 when not in a pod).
	VPID proc.PID
	Exe  string
	Args []string
	Brk  mem.Addr

	Threads    []ThreadRecord
	VMAs       []VMASection
	FDs        []FDRecord
	SigDisps   []SigDispRecord
	SigPending []sig.Signal
	SigBlocked []sig.Signal

	// Virtualized kernel state (ZAP-style pods only).
	Sockets []SocketRecord
	Shm     map[string][]byte

	// handlers carries live handler pointers for restores within the same
	// simulation; it does not survive Encode/Decode.
	handlers map[sig.Signal]*sig.Handler
}

// ObjectName returns the storage key for this image. Epoch-stamped
// images live under a per-incarnation prefix so chains from different
// incarnations can never collide on a reused PID.
func (img *Image) ObjectName() string {
	if img.Epoch != 0 {
		return fmt.Sprintf("ckpt/e%d/pid%d/seq%d", img.Epoch, img.PID, img.Seq)
	}
	return fmt.Sprintf("ckpt/pid%d/seq%d", img.PID, img.Seq)
}

// PayloadBytes returns the total captured memory bytes.
func (img *Image) PayloadBytes() int {
	n := 0
	for _, v := range img.VMAs {
		for _, e := range v.Extents {
			n += len(e.Data)
		}
	}
	return n
}

// NumExtents returns the total number of captured extents.
func (img *Image) NumExtents() int {
	n := 0
	for _, v := range img.VMAs {
		n += len(v.Extents)
	}
	return n
}

// Handlers returns the live handler map (same-simulation restores).
func (img *Image) Handlers() map[sig.Signal]*sig.Handler { return img.handlers }

// --- Binary codec ---

const (
	imageMagic = uint32(0xC4EC_4001)
	// imageVersion 2 added the Epoch field after Seq; version-1 images
	// (Epoch implicitly zero) still decode.
	imageVersion = uint16(2)
)

// ErrCorrupt reports a failed checksum or malformed image.
var ErrCorrupt = errors.New("checkpoint: corrupt image")

// cw writes the sectioned format to w, keeping the running CRC-64 of
// everything written. A nil w makes it a sizing pass: it counts the
// bytes the same calls would write without checksumming or storing them.
type cw struct {
	w   io.Writer
	crc uint64
	n   int
	err error
	tmp [8]byte // scratch for fixed-width fields
}

func (c *cw) write(p []byte) {
	if c.err != nil {
		return
	}
	if c.w == nil {
		c.n += len(p)
		return
	}
	c.crc = crc.Update(c.crc, p)
	n, err := c.w.Write(p)
	c.n += n
	c.err = err
}

func (c *cw) u8(v uint8)   { c.tmp[0] = v; c.write(c.tmp[:1]) }
func (c *cw) u16(v uint16) { binary.LittleEndian.PutUint16(c.tmp[:], v); c.write(c.tmp[:2]) }
func (c *cw) u32(v uint32) { binary.LittleEndian.PutUint32(c.tmp[:], v); c.write(c.tmp[:4]) }
func (c *cw) u64(v uint64) { binary.LittleEndian.PutUint64(c.tmp[:], v); c.write(c.tmp[:8]) }
func (c *cw) i64(v int64)  { c.u64(uint64(v)) }
func (c *cw) str(s string) { c.u32(uint32(len(s))); c.write([]byte(s)) }
func (c *cw) blob(b []byte) {
	c.u32(uint32(len(b)))
	c.write(b)
}
func (c *cw) blobOpt(b []byte) {
	if b == nil {
		c.u8(0)
		return
	}
	c.u8(1)
	c.blob(b)
}

// cr parses a body whose checksum has already been verified, in place:
// a blob is a capacity-clipped sub-slice of the body, not a copy.
type cr struct {
	body []byte
	off  int
	err  error
}

// next consumes and returns the next n bytes of the body.
func (c *cr) next(n int) []byte {
	if c.err != nil {
		return nil
	}
	if rest := len(c.body) - c.off; n > rest {
		eof := io.ErrUnexpectedEOF
		if rest == 0 {
			eof = io.EOF
		}
		c.err = fmt.Errorf("%w: %v", ErrCorrupt, eof)
		return nil
	}
	// The three-index slice clips capacity, so an append to one field
	// reallocates instead of writing over the next.
	b := c.body[c.off : c.off+n : c.off+n]
	c.off += n
	return b
}

// fixed returns the next n bytes, or n zero bytes once parsing failed,
// so a field read past a short body yields 0.
func (c *cr) fixed(n int) []byte {
	if b := c.next(n); b != nil {
		return b
	}
	return make([]byte, n)
}

func (c *cr) u8() uint8   { return c.fixed(1)[0] }
func (c *cr) u16() uint16 { return binary.LittleEndian.Uint16(c.fixed(2)) }
func (c *cr) u32() uint32 { return binary.LittleEndian.Uint32(c.fixed(4)) }
func (c *cr) u64() uint64 { return binary.LittleEndian.Uint64(c.fixed(8)) }
func (c *cr) i64() int64  { return int64(c.u64()) }
func (c *cr) str() string { return string(c.blob()) }
func (c *cr) blob() []byte {
	n := c.u32()
	if c.err != nil {
		return nil
	}
	if uint64(n) > uint64(len(c.body)-c.off) {
		c.err = fmt.Errorf("%w: blob length %d exceeds remaining input", ErrCorrupt, n)
		return nil
	}
	return c.next(int(n))
}
func (c *cr) blobOpt() []byte {
	if c.u8() == 0 {
		return nil
	}
	return c.blob()
}

// Encode writes the image in the sectioned binary format, ending with a
// CRC-64 trailer. The body is split into head / per-VMA sections / tail
// helpers shared with EncodeParallel, which encodes the same layout with
// sections sharded across workers — both paths produce identical bytes.
func (img *Image) Encode(w io.Writer) (int, error) {
	c := &cw{w: w}
	img.encode(c)
	return c.n, c.err
}

// encode writes the whole image, trailer included, in one CRC pass.
func (img *Image) encode(c *cw) {
	img.encodeHead(c)
	for i := range img.VMAs {
		encodeVMAHeader(c, &img.VMAs[i])
		encodeExtents(c, img.VMAs[i].Extents)
	}
	img.encodeTail(c)

	// CRC trailer, not itself covered: the running CRC is final here,
	// and what writing the trailer folds into it is never read.
	c.u64(c.crc)
}

// encodeSpan runs enc into span, which must be exactly as long as what
// enc writes, and returns the CRC of the written bytes. A size mismatch
// in either direction is a sizing bug, reported rather than shipped.
func encodeSpan(span []byte, enc func(*cw)) (uint64, error) {
	c := &cw{w: &sliceWriter{buf: span}}
	enc(c)
	if c.err == nil && c.n != len(span) {
		c.err = fmt.Errorf("checkpoint: encode wrote %d bytes into a planned %d", c.n, len(span))
	}
	return c.crc, c.err
}

// sliceWriter writes into a fixed preallocated span; overflow is a
// sizing bug, reported rather than silently clobbering a neighbour.
type sliceWriter struct {
	buf []byte
	n   int
}

func (s *sliceWriter) Write(p []byte) (int, error) {
	if s.n+len(p) > len(s.buf) {
		return 0, errors.New("checkpoint: encode span overflow")
	}
	copy(s.buf[s.n:], p)
	s.n += len(p)
	return len(p), nil
}

// encodedSize returns how many bytes enc writes, from a sizing pass.
func encodedSize(enc func(*cw)) int {
	c := &cw{}
	enc(c)
	return c.n
}

// encodeHead writes everything before the VMA sections, up to and
// including the section count.
func (img *Image) encodeHead(c *cw) {
	c.u32(imageMagic)
	c.u16(imageVersion)
	c.str(img.Mechanism)
	c.str(img.Hostname)
	c.i64(int64(img.TakenAt))
	c.u64(img.Seq)
	c.u64(img.Epoch)
	c.str(img.Parent)
	c.u8(uint8(img.Mode))
	c.i64(int64(img.PID))
	c.i64(int64(img.PPID))
	c.i64(int64(img.VPID))
	c.str(img.Exe)
	c.u32(uint32(len(img.Args)))
	for _, a := range img.Args {
		c.str(a)
	}
	c.u64(uint64(img.Brk))

	c.u32(uint32(len(img.Threads)))
	for _, t := range img.Threads {
		c.i64(int64(t.TID))
		c.u64(t.Regs.PC)
		c.u64(t.Regs.SP)
		for _, g := range t.Regs.G {
			c.u64(g)
		}
	}

	c.u32(uint32(len(img.VMAs)))
}

// encodeVMAHeader writes one section's fixed fields and extent count.
func encodeVMAHeader(c *cw, v *VMASection) {
	c.u64(uint64(v.Start))
	c.u64(v.Length)
	c.u8(uint8(v.Kind))
	c.str(v.Name)
	c.u8(uint8(v.Prot))
	c.u32(uint32(len(v.Extents)))
}

// encodeExtents writes a run of extents (a shard boundary for the
// parallel encoder).
func encodeExtents(c *cw, exts []Extent) {
	for _, e := range exts {
		c.u64(uint64(e.Addr))
		c.blob(e.Data)
	}
}

// encodeTail writes everything after the VMA sections.
func (img *Image) encodeTail(c *cw) {
	c.u32(uint32(len(img.FDs)))
	for _, f := range img.FDs {
		c.i64(int64(f.FD))
		c.str(f.Path)
		c.u8(uint8(f.Flags))
		c.i64(f.Offset)
		if f.Deleted {
			c.u8(1)
		} else {
			c.u8(0)
		}
		c.blobOpt(f.Contents)
	}

	c.u32(uint32(len(img.SigDisps)))
	for _, d := range img.SigDisps {
		c.i64(int64(d.Sig))
		c.u8(d.Kind)
		c.str(d.HandlerName)
		if d.NonReentrant {
			c.u8(1)
		} else {
			c.u8(0)
		}
	}
	writeSigs := func(ss []sig.Signal) {
		c.u32(uint32(len(ss)))
		for _, s := range ss {
			c.i64(int64(s))
		}
	}
	writeSigs(img.SigPending)
	writeSigs(img.SigBlocked)

	c.u32(uint32(len(img.Sockets)))
	for _, s := range img.Sockets {
		c.i64(int64(s.ID))
		c.str(s.Peer)
	}

	keys := make([]string, 0, len(img.Shm))
	for k := range img.Shm {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	c.u32(uint32(len(keys)))
	for _, k := range keys {
		c.str(k)
		c.blob(img.Shm[k])
	}
}

// EncodeBytes returns the encoded image. A sizing pass over the
// metadata fixes the exact length first, so the buffer is allocated once
// at its final size (cap == len) and the bytes are written, and
// checksummed, in a single pass.
func (img *Image) EncodeBytes() ([]byte, error) {
	buf := make([]byte, encodedSize(img.encode))
	if _, err := encodeSpan(buf, img.encode); err != nil {
		return nil, err
	}
	return buf, nil
}

// Decode parses an encoded image. The CRC-64 trailer is checked over the
// whole body before any field is parsed, and parsing then reads the
// verified bytes in place: every extent's Data, every Shm value and
// every FD's Contents is a sub-slice of data, with capacity clipped to
// its length so an append to one field cannot reach another. The
// returned image therefore aliases data, and the caller must not modify
// data afterwards. Strings are copied.
func Decode(data []byte) (*Image, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: too short", ErrCorrupt)
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	wantCRC := binary.LittleEndian.Uint64(trailer)
	if crc.Checksum(body) != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	c := &cr{body: body}
	if c.u32() != imageMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	v := c.u16()
	if v < 1 || v > imageVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	img := &Image{}
	img.Mechanism = c.str()
	img.Hostname = c.str()
	img.TakenAt = simtime.Time(c.i64())
	img.Seq = c.u64()
	if v >= 2 {
		img.Epoch = c.u64()
	}
	img.Parent = c.str()
	img.Mode = Mode(c.u8())
	img.PID = proc.PID(c.i64())
	img.PPID = proc.PID(c.i64())
	img.VPID = proc.PID(c.i64())
	img.Exe = c.str()
	nArgs := c.u32()
	for i := uint32(0); i < nArgs && c.err == nil; i++ {
		img.Args = append(img.Args, c.str())
	}
	img.Brk = mem.Addr(c.u64())

	nThr := c.u32()
	for i := uint32(0); i < nThr && c.err == nil; i++ {
		var t ThreadRecord
		t.TID = proc.TID(c.i64())
		t.Regs.PC = c.u64()
		t.Regs.SP = c.u64()
		for j := range t.Regs.G {
			t.Regs.G[j] = c.u64()
		}
		img.Threads = append(img.Threads, t)
	}

	nVMA := c.u32()
	for i := uint32(0); i < nVMA && c.err == nil; i++ {
		var v VMASection
		v.Start = mem.Addr(c.u64())
		v.Length = c.u64()
		v.Kind = mem.VMAKind(c.u8())
		v.Name = c.str()
		v.Prot = mem.Prot(c.u8())
		nExt := c.u32()
		for j := uint32(0); j < nExt && c.err == nil; j++ {
			var e Extent
			e.Addr = mem.Addr(c.u64())
			e.Data = c.blob()
			v.Extents = append(v.Extents, e)
		}
		img.VMAs = append(img.VMAs, v)
	}

	nFD := c.u32()
	for i := uint32(0); i < nFD && c.err == nil; i++ {
		var f FDRecord
		f.FD = int(c.i64())
		f.Path = c.str()
		f.Flags = fs.OpenFlags(c.u8())
		f.Offset = c.i64()
		f.Deleted = c.u8() == 1
		f.Contents = c.blobOpt()
		img.FDs = append(img.FDs, f)
	}

	nDisp := c.u32()
	for i := uint32(0); i < nDisp && c.err == nil; i++ {
		var d SigDispRecord
		d.Sig = sig.Signal(c.i64())
		d.Kind = c.u8()
		d.HandlerName = c.str()
		d.NonReentrant = c.u8() == 1
		img.SigDisps = append(img.SigDisps, d)
	}
	readSigs := func() []sig.Signal {
		n := c.u32()
		var out []sig.Signal
		for i := uint32(0); i < n && c.err == nil; i++ {
			out = append(out, sig.Signal(c.i64()))
		}
		return out
	}
	img.SigPending = readSigs()
	img.SigBlocked = readSigs()

	nSock := c.u32()
	for i := uint32(0); i < nSock && c.err == nil; i++ {
		var s SocketRecord
		s.ID = int(c.i64())
		s.Peer = c.str()
		img.Sockets = append(img.Sockets, s)
	}

	nShm := c.u32()
	if nShm > 0 {
		// Bound the bucket pre-allocation by what the remaining input
		// could possibly hold (each entry costs at least two u32 length
		// prefixes): a forged count must not allocate ahead of the bytes
		// backing it.
		hint := (len(c.body) - c.off) / 8
		if int(nShm) < hint {
			hint = int(nShm)
		}
		img.Shm = make(map[string][]byte, hint)
	}
	for i := uint32(0); i < nShm && c.err == nil; i++ {
		k := c.str()
		img.Shm[k] = c.blob()
	}

	if c.err != nil {
		return nil, c.err
	}
	return img, nil
}
