package checkpoint

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// Stats summarizes one capture.
type Stats struct {
	Mode         Mode
	PayloadBytes int // memory contents captured
	EncodedBytes int // bytes written to storage
	Extents      int
	VMAs         int
	Workers      int // capture worker pool size actually used (1 = sequential)
	// ExcludedBytes counts payload dropped because it fell inside a
	// declared RegionExclude checkpoint region (scratch state the
	// application promised not to need across a restart).
	ExcludedBytes int
	Duration      simtime.Duration
	Object        string
}

// Request drives one capture.
type Request struct {
	// Acc extracts the state; Trk selects what memory to include
	// (nil = everything resident, a full checkpoint).
	Acc Accessor
	Trk Tracker

	// Target receives the encoded image; Env accounts the I/O. A nil
	// Target keeps the image in memory only (probing, migration pipes).
	Target storage.Target
	Env    *storage.Env

	Mechanism string
	Hostname  string
	Seq       uint64
	// Parent is the object name of the previous image for incremental
	// captures ("" for full).
	Parent string
	// Epoch namespaces the image's object name by incarnation (see
	// Image.Epoch). Zero keeps legacy single-incarnation names.
	Epoch uint64
	// Now is the capture timestamp.
	Now simtime.Time
	// Parallelism shards the payload read and the image encode across a
	// worker pool of that size. 0 or 1 keeps the sequential path; results
	// are byte-identical either way, only the simulated capture time
	// changes. Values above 1 take effect only when the accessor supports
	// concurrent reads (ParallelReader) — user-level accessors read
	// through syscalls and always capture sequentially. Callers that want
	// host-sized capture pass DefaultParallelism() explicitly; defaulting
	// to it here would make simulated results machine-dependent.
	Parallelism int
	// AsPID, when nonzero, overrides the PID recorded in the image (used
	// by fork-consistency captures: the frozen child is captured, but the
	// image belongs to the parent).
	AsPID proc.PID
	// KernelExtras, when non-nil, is invoked before layout to record
	// kernel state the accessor does not gather: virtualized sockets and
	// shm (ZAP-style pods), or every open file's contents (PsncR/C).
	KernelExtras func(img *Image)
}

// Capture extracts the process state selected by the request and, if a
// target is given, writes the encoded image to stable storage. The
// returned image always carries the live handler map for same-simulation
// restores.
//
// The image is laid out in its final encoded buffer before any memory is
// read: metadata is collected first, one allocation sized for the whole
// encoding is made, and memory is read straight into the extents' slots
// in it. With a target, one seal pass then writes the metadata and the
// CRC-64 around them, and that buffer is what storage keeps. The returned
// image's extents therefore alias the stored object (capacity-clipped,
// like Decode's), so the image is read-only: writing an extent's bytes
// would change a committed checkpoint.
func Capture(req Request) (*Image, Stats, error) {
	acc := req.Acc
	p := acc.Process()
	env := req.Env
	if env == nil {
		env = storage.NopEnv()
	}

	mode := ModeFull
	parent := req.Parent
	if req.Trk != nil && req.Parent != "" {
		mode = ModeIncremental
	} else {
		// A full image stands alone: without a tracker every capture is
		// complete, so no parent link is recorded even when the mechanism
		// has checkpointed this process before.
		parent = ""
	}

	img := &Image{
		Mechanism: req.Mechanism,
		Hostname:  req.Hostname,
		TakenAt:   req.Now,
		Seq:       req.Seq,
		Parent:    parent,
		Mode:      mode,
		Epoch:     req.Epoch,
		PID:       p.PID,
		PPID:      p.PPID,
		VPID:      p.VPID,
		Exe:       p.Exe,
		Args:      append([]string(nil), p.Args...),
		Brk:       acc.Brk(),
		Threads:   acc.Threads(),
	}

	// Memory: section per VMA, extents from the tracker.
	var ranges []Range
	if req.Trk != nil {
		rs, err := req.Trk.Collect()
		if err != nil {
			return nil, Stats{}, fmt.Errorf("checkpoint: collect: %w", err)
		}
		ranges = rs
	}
	workers := req.Parallelism
	pr, canPar := acc.(ParallelReader)
	if workers <= 1 || !canPar {
		workers = 1
	}

	vmas := acc.VMAs()
	// Every metadata field first: the layout below sizes the encoding
	// around them.
	if req.AsPID != 0 {
		img.PID = req.AsPID
	}
	img.FDs = acc.FDs()
	disps, pending, blocked, handlers := acc.SignalState()
	img.SigDisps = disps
	img.SigPending = pending
	img.SigBlocked = blocked
	img.handlers = handlers

	if req.KernelExtras != nil && acc.KernelState() {
		req.KernelExtras(img)
	}

	excludedBytes := 0
	var exts [][]Range
	for _, v := range vmas {
		img.VMAs = append(img.VMAs, VMASection{Start: v.Start, Length: v.Length, Kind: v.Kind, Name: v.Name, Prot: v.Prot})
		var vranges []Range
		if req.Trk == nil {
			// Full capture: all resident pages of this VMA.
			vranges = residentRangesOf(p, v)
		} else {
			for _, r := range ranges {
				if r.Addr >= v.Start && r.Addr < v.End() {
					vranges = append(vranges, r)
				}
			}
		}
		var dropped int
		vranges, dropped = subtractExcludedRegions(p, vranges)
		excludedBytes += dropped
		var sec []Range
		for _, r := range vranges {
			// A zero-length tracker range would become an empty extent,
			// which Verify rejects — trackers shouldn't produce them, but
			// a capture must not turn one into an unpublishable image.
			if r.Length > 0 {
				sec = append(sec, r)
			}
		}
		exts = append(exts, sec)
	}
	// Memory lands straight in the extents' slots of the encoded image.
	encoded := img.layout(exts)
	if workers > 1 {
		if err := fillExtentsParallel(img, pr, workers); err != nil {
			return nil, Stats{}, err
		}
	} else {
		for _, sec := range img.VMAs {
			for _, e := range sec.Extents {
				if err := acc.ReadRange(e.Addr, e.Data); err != nil {
					return nil, Stats{}, fmt.Errorf("checkpoint: read %#x+%d: %w", uint64(e.Addr), len(e.Data), err)
				}
			}
		}
	}

	st := Stats{
		Mode:          mode,
		PayloadBytes:  img.PayloadBytes(),
		Extents:       img.NumExtents(),
		VMAs:          len(img.VMAs),
		Workers:       workers,
		ExcludedBytes: excludedBytes,
		Object:        img.ObjectName(),
	}

	if req.Target == nil {
		// The caller may encode the image later: keep the layout buffer
		// for that encode to seal in place.
		img.unsealed = encoded
		return img, st, nil
	}
	if err := img.seal(encoded, workers); err != nil {
		return nil, Stats{}, err
	}
	// Encoding cost ≈ one memcpy of the image, divided across the
	// worker pool plus its fork/join overhead when sharded.
	env.Bill.Charge(encodeCost(len(encoded), workers), "encode")
	// Atomic commit by default: stage, sync, publish — a crash
	// mid-write can only tear the staging object, never a committed
	// image. A delta also names its parent so storage refuses to
	// publish onto an ancestry the target does not hold; Unsafe-wrapped
	// targets take the legacy in-place path (the torn-image contrast
	// for experiments). All three protocols live behind storage.Write.
	opts := storage.WriteOptions{Atomic: true, Env: env}
	if mode == ModeIncremental {
		opts.Parent = img.Parent
	}
	if err := storage.Write(req.Target, img.ObjectName(), encoded, opts); err != nil {
		return nil, Stats{}, err
	}
	st.EncodedBytes = len(encoded)
	return img, st, nil
}

// EncodeCost estimates the simulated time to encode an n-byte image with
// a workers-wide pool — the charge Capture bills internally, exported for
// orchestration layers that encode images themselves (the pipelined
// cluster agents capture with a nil Target and encode on the node).
func EncodeCost(n, workers int) simtime.Duration { return encodeCost(n, workers) }

// encodeCost estimates encode time without forcing every caller to
// thread a cost model: ~1.2 GB/s, the Default2005 memcpy rate, divided
// across workers (plus fork/join overhead) when the encode is sharded.
func encodeCost(n, workers int) simtime.Duration {
	seq := simtime.Duration(float64(n) / 1.2e9 * float64(simtime.Second))
	if workers <= 1 {
		return seq
	}
	return seq/simtime.Duration(workers) + simtime.Duration(workers)*parallelWorkerOverhead
}

// readChunkBytes is the target payload of one parallel read job. Large
// extents are split at this granularity so a handful of big contiguous
// VMAs (the common Dense-workload shape) still spread across the pool.
const readChunkBytes = 256 << 10

// fillExtentsParallel reads every preallocated extent through a shared
// concurrent-safe reader, splitting big extents into chunk jobs so load
// balances across the pool. The cost is billed once, up-front, from the
// capturing goroutine (the simulated clock cannot be advanced from
// workers); the goroutines then only move bytes.
func fillExtentsParallel(img *Image, pr ParallelReader, workers int) error {
	type job struct {
		addr mem.Addr
		buf  []byte
	}
	var jobs []job
	total := 0
	for i := range img.VMAs {
		for j := range img.VMAs[i].Extents {
			e := &img.VMAs[i].Extents[j]
			total += len(e.Data)
			for off := 0; off < len(e.Data); off += readChunkBytes {
				end := off + readChunkBytes
				if end > len(e.Data) {
					end = len(e.Data)
				}
				jobs = append(jobs, job{addr: e.Addr + mem.Addr(off), buf: e.Data[off:end]})
			}
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	read := pr.PrepareParallelRead(total, workers)
	var next int64 = -1
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				if err := read(j.addr, j.buf); err != nil {
					errs[w] = fmt.Errorf("checkpoint: read %#x+%d: %w", uint64(j.addr), len(j.buf), err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// DefaultParallelism returns the host's available parallelism — the
// right Parallelism for CLI tools and benches that want capture to run
// as wide as the machine. Library code must opt in explicitly so
// simulated results stay host-independent by default.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// subtractExcludedRegions removes the process's declared RegionExclude
// checkpoint regions from a capture range set and reports how many
// bytes were dropped. The region API is CRAFT-style: the application
// declares up front which address ranges are scratch (recomputable
// after restart), and every capture — full or delta — honours the
// declaration. Protect regions are the trackers' concern; here only
// exclusions apply.
func subtractExcludedRegions(p *proc.Process, rs []Range) ([]Range, int) {
	var regs []proc.CkptRegion
	for _, cr := range p.CkptRegions {
		if cr.Policy == proc.RegionExclude {
			regs = append(regs, cr)
		}
	}
	if len(regs) == 0 || len(rs) == 0 {
		return rs, 0
	}
	dropped := 0
	out := make([]Range, 0, len(rs))
	for _, r := range rs {
		segs := []Range{r}
		for _, cr := range regs {
			var next []Range
			for _, s := range segs {
				lo, hi := s.Addr, s.Addr+mem.Addr(s.Length)
				clo, chi := cr.Start, cr.End()
				if chi <= lo || clo >= hi {
					next = append(next, s)
					continue
				}
				if clo > lo {
					next = append(next, Range{Addr: lo, Length: int(clo - lo)})
				}
				if chi < hi {
					next = append(next, Range{Addr: chi, Length: int(hi - chi)})
				}
			}
			segs = next
		}
		kept := 0
		for _, s := range segs {
			kept += s.Length
			out = append(out, s)
		}
		dropped += r.Length - kept
	}
	return out, dropped
}

// residentRangesOf lists resident page ranges of a single VMA (text
// included for full captures: restart must reproduce the whole image).
func residentRangesOf(p *proc.Process, v *mem.VMA) []Range {
	var pages []mem.PageNum
	for _, pi := range p.AS.ResidentPages() {
		if pi.VMA == v {
			pages = append(pages, pi.Num)
		}
	}
	return pagesToRanges(pages)
}
