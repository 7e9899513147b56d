// Package workload provides the simulated applications the experiments
// checkpoint: synthetic programs spanning the write-density and locality
// space that determines incremental-checkpointing effectiveness (the paper
// cites [31]: "the reduction in the size of the checkpoint data depends
// strongly on the application").
//
// Every workload obeys the kernel.Program contract: the Program value is
// stateless and all mutable state lives in simulated registers and memory.
// Pseudo-random access patterns are derived by hashing (seed, counter), so
// a restarted process replays exactly the same accesses — this is what
// makes restart-equivalence testable.
//
// Register conventions (proc.Regs.G):
//
//	PC   iteration counter
//	G[1] iteration limit (0 = run forever)
//	G[3] running result checksum (the workload's observable output)
//	G[4] phase / program-specific scratch
package workload

import (
	"encoding/binary"
	"fmt"

	"repro/internal/simos/kernel"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
)

// ArenaBase is where every workload maps its working set.
const ArenaBase = mem.Addr(0x1000_0000)

// ArenaName is the VMA name of the working set.
const ArenaName = "arena"

// ScratchBase is where region-annotated workloads map their scratch
// buffer — per-iteration temporaries the program recomputes from the
// arena after any restart, declared RegionExclude so captures skip them.
const ScratchBase = mem.Addr(0x2000_0000)

// ScratchName is the VMA name of the scratch buffer.
const ScratchName = "scratch"

// ScratchBytes is the scratch buffer size (16 pages).
const ScratchBytes = 16 << mem.PageShift

// Fingerprint returns the workload's observable result: the running
// checksum register. Two executions are equivalent iff their fingerprints
// (and exit codes) match.
func Fingerprint(p *proc.Process) uint64 { return p.Regs().G[3] }

// SetIterations overrides the iteration limit of a freshly spawned
// workload process.
func SetIterations(p *proc.Process, n uint64) { p.Regs().G[1] = n }

// splitmix64 is the stateless PRNG used to derive access patterns from
// (seed, counter) without any hidden mutable state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mixChecksum folds v into the running checksum register.
func mixChecksum(r *proc.Regs, v uint64) { r.G[3] = splitmix64(r.G[3] ^ v) }

// mapArena maps the working set and returns it.
func mapArena(ctx *kernel.Context, bytes uint64) error {
	if bytes == 0 || bytes%mem.PageSize != 0 {
		return fmt.Errorf("workload: arena size %d not page-aligned", bytes)
	}
	_, err := ctx.P.AS.Map(ArenaBase, bytes, mem.ProtRW, mem.KindAnon, ArenaName)
	return err
}

// declareRegions maps the scratch VMA and files the CRAFT-style region
// declarations with the kernel: the arena is RegionProtect (results live
// here — never liveness-excluded), the scratch buffer RegionExclude
// (recomputable — captures drop it entirely). Workloads opt in via
// their Regions flag; without it nothing here runs and behaviour is
// byte-identical to the pre-region workloads.
func declareRegions(ctx *kernel.Context, arenaBytes uint64) error {
	if _, err := ctx.P.AS.Map(ScratchBase, ScratchBytes, mem.ProtRW, mem.KindAnon, ScratchName); err != nil {
		return err
	}
	if err := ctx.CheckpointRegion(proc.CkptRegion{
		Start: ArenaBase, Length: int(arenaBytes), Policy: proc.RegionProtect,
	}); err != nil {
		return err
	}
	return ctx.CheckpointRegion(proc.CkptRegion{
		Start: ScratchBase, Length: ScratchBytes, Policy: proc.RegionExclude,
	})
}

// scratchStep dirties one scratch page. The content is derived from the
// tag but deliberately not folded into the checksum: scratch is
// recomputable state, so the observable output — and therefore the
// fingerprint — is identical whether or not regions are enabled.
func scratchStep(ctx *kernel.Context, tag uint64) error {
	var buf [mem.PageSize]byte
	pageBuf(buf[:], tag)
	pg := tag % (ScratchBytes >> mem.PageShift)
	return ctx.Store(ScratchBase+mem.Addr(pg<<mem.PageShift), buf[:])
}

// pageBuf fills a buffer with content derived from tag, so that pages
// written in different iterations differ. It is the definition of a
// page's content: each 8-byte word is the next splitmix64 value in
// little-endian order, and a short tail takes that value's low bytes.
// Dense and Sparse fill whole pages through fillLanes, which must write
// exactly these bytes; Phased, the threaded workload and scratchStep
// write one page at a time and call pageBuf itself.
func pageBuf(buf []byte, tag uint64) {
	v := splitmix64(tag)
	for len(buf) >= 8 {
		v = splitmix64(v)
		binary.LittleEndian.PutUint64(buf, v)
		buf = buf[8:]
	}
	if len(buf) > 0 {
		v = splitmix64(v)
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
	}
}

// lanes is how many pages fillLanes fills at once. Each page's 512
// splitmix64 steps form one dependency chain, so a lone chain leaves
// the multiplier waiting on its own previous result; four interleaved
// chains keep it busy (1.5 to 4.7-5.2 GB/s per BenchmarkPageBuf on a
// 2-core Xeon). Eight ran no faster there, since the loop then runs out
// of registers, and would waste more work on a short batch.
const lanes = 4

// fillLanes sets bufs[i] to pageBuf's content for tags[i], for every
// lane. A caller with fewer than lanes pages to fill ignores the
// remaining lanes. The four chains are spelled out: a loop over a lane
// count keeps them in memory and loses most of the gain.
func fillLanes(bufs *[lanes][mem.PageSize]byte, tags *[lanes]uint64) {
	v0, v1, v2, v3 := splitmix64(tags[0]), splitmix64(tags[1]), splitmix64(tags[2]), splitmix64(tags[3])
	for i := 0; i <= mem.PageSize-8; i += 8 {
		v0, v1, v2, v3 = splitmix64(v0), splitmix64(v1), splitmix64(v2), splitmix64(v3)
		binary.LittleEndian.PutUint64(bufs[0][i:i+8], v0)
		binary.LittleEndian.PutUint64(bufs[1][i:i+8], v1)
		binary.LittleEndian.PutUint64(bufs[2][i:i+8], v2)
		binary.LittleEndian.PutUint64(bufs[3][i:i+8], v3)
	}
}

// cyclesPerPage is the simulated compute cost per page processed,
// approximating a memory-bound scientific kernel (~2.5 GB/s touch rate on
// the 2005 reference CPU).
const cyclesPerPage = 3000

// Dense sweeps the whole arena every iteration, writing every page: the
// worst case for incremental checkpointing (delta ≈ full size).
type Dense struct {
	MiB          int    // working-set size
	Iterations   uint64 // default iteration limit (0 = forever)
	PagesPerStep int    // pages processed per Step (default 64)
	// Regions opts into the declarative checkpoint-region API: a scratch
	// VMA is mapped and declared RegionExclude, the arena RegionProtect.
	Regions bool
}

// Name implements kernel.Program.
func (d Dense) Name() string {
	if d.Regions {
		return fmt.Sprintf("dense[mib=%d,regions]", d.MiB)
	}
	return fmt.Sprintf("dense[mib=%d]", d.MiB)
}

func (d Dense) pagesPerStep() int {
	if d.PagesPerStep <= 0 {
		return 64
	}
	return d.PagesPerStep
}

// Init implements kernel.Program.
func (d Dense) Init(ctx *kernel.Context) error {
	ctx.Regs().G[1] = d.Iterations
	if err := mapArena(ctx, uint64(d.MiB)<<20); err != nil {
		return err
	}
	if d.Regions {
		return declareRegions(ctx, uint64(d.MiB)<<20)
	}
	return nil
}

// Step implements kernel.Program. G[4] holds the sweep position (page
// index); PC counts completed sweeps. Pages are filled in batches of up
// to lanes, cut at the end of the step and of the sweep; each page is
// then stored, charged and mixed into the checksum in sweep order.
func (d Dense) Step(ctx *kernel.Context) (kernel.Status, error) {
	r := ctx.Regs()
	if r.G[1] != 0 && r.PC >= r.G[1] {
		ctx.Exit(0)
		return kernel.StatusExited, nil
	}
	totalPages := uint64(d.MiB) << 20 >> mem.PageShift
	var bufs [lanes][mem.PageSize]byte
	var tags [lanes]uint64
	n := uint64(d.pagesPerStep())
sweep:
	for n > 0 {
		b := min(lanes, n, totalPages-r.G[4])
		for j := uint64(0); j < b; j++ {
			tags[j] = r.PC<<32 | (r.G[4] + j)
		}
		fillLanes(&bufs, &tags)
		for j := uint64(0); j < b; j++ {
			pg := r.G[4]
			if err := ctx.Store(ArenaBase+mem.Addr(pg<<mem.PageShift), bufs[j][:]); err != nil {
				return kernel.StatusExited, err
			}
			ctx.Compute(cyclesPerPage)
			mixChecksum(r, tags[j])
			r.G[4]++
			if r.G[4] >= totalPages {
				r.G[4] = 0
				r.PC++
				break sweep
			}
		}
		n -= b
	}
	if d.Regions {
		if err := scratchStep(ctx, r.PC<<32|r.G[4]); err != nil {
			return kernel.StatusExited, err
		}
	}
	return kernel.StatusRunning, nil
}

// Sparse writes a pseudo-random fraction of the arena's pages per
// iteration: the regime where incremental checkpointing wins.
type Sparse struct {
	MiB          int
	WriteFrac    float64 // fraction of pages written per iteration (0..1]
	Seed         uint64
	Iterations   uint64
	PagesPerStep int
	// Regions opts into the declarative checkpoint-region API (see Dense).
	Regions bool
}

// Name implements kernel.Program.
func (s Sparse) Name() string {
	if s.Regions {
		return fmt.Sprintf("sparse[mib=%d,frac=%.3f,seed=%d,regions]", s.MiB, s.WriteFrac, s.Seed)
	}
	return fmt.Sprintf("sparse[mib=%d,frac=%.3f,seed=%d]", s.MiB, s.WriteFrac, s.Seed)
}

func (s Sparse) pagesPerStep() int {
	if s.PagesPerStep <= 0 {
		return 64
	}
	return s.PagesPerStep
}

// Init implements kernel.Program.
func (s Sparse) Init(ctx *kernel.Context) error {
	if s.WriteFrac <= 0 || s.WriteFrac > 1 {
		return fmt.Errorf("workload: WriteFrac %v out of (0,1]", s.WriteFrac)
	}
	ctx.Regs().G[1] = s.Iterations
	if err := mapArena(ctx, uint64(s.MiB)<<20); err != nil {
		return err
	}
	if s.Regions {
		return declareRegions(ctx, uint64(s.MiB)<<20)
	}
	return nil
}

// Step implements kernel.Program. G[4] counts writes within the current
// iteration; target pages derive from splitmix64(seed, PC, G[4]). Pages
// are filled in batches of up to lanes, cut at the end of the step and
// of the iteration; each page is then stored, charged and mixed into
// the checksum in write order. Closing an iteration takes one of the
// step's page slots and ends the step.
func (s Sparse) Step(ctx *kernel.Context) (kernel.Status, error) {
	r := ctx.Regs()
	if r.G[1] != 0 && r.PC >= r.G[1] {
		ctx.Exit(0)
		return kernel.StatusExited, nil
	}
	totalPages := uint64(s.MiB) << 20 >> mem.PageShift
	writesPerIter := uint64(float64(totalPages) * s.WriteFrac)
	if writesPerIter == 0 {
		writesPerIter = 1
	}
	var bufs [lanes][mem.PageSize]byte
	var tags, pages [lanes]uint64
	for n := uint64(s.pagesPerStep()); n > 0; {
		if r.G[4] >= writesPerIter {
			r.G[4] = 0
			r.PC++
			return kernel.StatusRunning, nil
		}
		b := min(lanes, n, writesPerIter-r.G[4])
		for j := uint64(0); j < b; j++ {
			pages[j] = splitmix64(s.Seed^r.PC<<20^(r.G[4]+j)) % totalPages
			tags[j] = r.PC<<32 | pages[j]
		}
		fillLanes(&bufs, &tags)
		for j := uint64(0); j < b; j++ {
			pg := pages[j]
			if err := ctx.Store(ArenaBase+mem.Addr(pg<<mem.PageShift), bufs[j][:]); err != nil {
				return kernel.StatusExited, err
			}
			ctx.Compute(cyclesPerPage)
			mixChecksum(r, pg)
			r.G[4]++
		}
		n -= b
	}
	if s.Regions {
		if err := scratchStep(ctx, r.PC<<32|r.G[4]); err != nil {
			return kernel.StatusExited, err
		}
	}
	return kernel.StatusRunning, nil
}

// Stencil models a 2-D Jacobi iteration: two grids, reads one, writes the
// other, alternating — per-iteration delta is exactly half the arena, with
// strong spatial locality. This approximates the SAGE/Sweep3D-class codes
// of [31].
type Stencil struct {
	MiB          int // total arena (two grids of MiB/2 each)
	Iterations   uint64
	PagesPerStep int
}

// Name implements kernel.Program.
func (s Stencil) Name() string { return fmt.Sprintf("stencil[mib=%d]", s.MiB) }

func (s Stencil) pagesPerStep() int {
	if s.PagesPerStep <= 0 {
		return 64
	}
	return s.PagesPerStep
}

// Init implements kernel.Program.
func (s Stencil) Init(ctx *kernel.Context) error {
	ctx.Regs().G[1] = s.Iterations
	return mapArena(ctx, uint64(s.MiB)<<20)
}

// Step implements kernel.Program. Even PC writes grid B (second half)
// reading grid A; odd PC writes grid A. G[4] is the page cursor within
// the destination grid.
func (s Stencil) Step(ctx *kernel.Context) (kernel.Status, error) {
	r := ctx.Regs()
	if r.G[1] != 0 && r.PC >= r.G[1] {
		ctx.Exit(0)
		return kernel.StatusExited, nil
	}
	gridPages := (uint64(s.MiB) << 20 >> mem.PageShift) / 2
	if gridPages == 0 {
		gridPages = 1
	}
	srcBase, dstBase := ArenaBase, ArenaBase+mem.Addr(gridPages<<mem.PageShift)
	if r.PC%2 == 1 {
		srcBase, dstBase = dstBase, srcBase
	}
	var in, out [mem.PageSize]byte
	for i := 0; i < s.pagesPerStep(); i++ {
		pg := r.G[4]
		if err := ctx.Load(srcBase+mem.Addr(pg<<mem.PageShift), in[:]); err != nil {
			return kernel.StatusExited, err
		}
		// "Relax": derive output from input plus iteration tag.
		for j := 0; j < mem.PageSize; j += 8 {
			out[j] = in[j] + byte(r.PC)
		}
		if err := ctx.Store(dstBase+mem.Addr(pg<<mem.PageShift), out[:]); err != nil {
			return kernel.StatusExited, err
		}
		ctx.Compute(2 * cyclesPerPage)
		mixChecksum(r, uint64(out[0])<<32|pg)
		r.G[4]++
		if r.G[4] >= gridPages {
			r.G[4] = 0
			r.PC++
			break
		}
	}
	return kernel.StatusRunning, nil
}

// PointerChase reads pseudo-randomly across the arena and writes rarely:
// the best case for incremental checkpointing (tiny deltas), with poor
// locality for hardware line-logging.
type PointerChase struct {
	MiB          int
	WriteEvery   uint64 // one write per this many reads (default 64)
	Seed         uint64
	Iterations   uint64
	ReadsPerStep int
}

// Name implements kernel.Program.
func (p PointerChase) Name() string {
	return fmt.Sprintf("chase[mib=%d,we=%d,seed=%d]", p.MiB, p.writeEvery(), p.Seed)
}

func (p PointerChase) writeEvery() uint64 {
	if p.WriteEvery == 0 {
		return 64
	}
	return p.WriteEvery
}

func (p PointerChase) readsPerStep() int {
	if p.ReadsPerStep <= 0 {
		return 256
	}
	return p.ReadsPerStep
}

// Init implements kernel.Program.
func (p PointerChase) Init(ctx *kernel.Context) error {
	ctx.Regs().G[1] = p.Iterations
	return mapArena(ctx, uint64(p.MiB)<<20)
}

// Step implements kernel.Program; one iteration = one read (plus an
// occasional write), so limits here are counts of accesses.
func (p PointerChase) Step(ctx *kernel.Context) (kernel.Status, error) {
	r := ctx.Regs()
	size := uint64(p.MiB) << 20
	for i := 0; i < p.readsPerStep(); i++ {
		if r.G[1] != 0 && r.PC >= r.G[1] {
			ctx.Exit(0)
			return kernel.StatusExited, nil
		}
		addr := ArenaBase + mem.Addr(splitmix64(p.Seed^r.PC)%(size-8))
		v, err := ctx.Load8(addr)
		if err != nil {
			return kernel.StatusExited, err
		}
		mixChecksum(r, v^r.PC)
		if r.PC%p.writeEvery() == 0 {
			if err := ctx.Store8(addr, r.G[3]); err != nil {
				return kernel.StatusExited, err
			}
		}
		ctx.Compute(400)
		r.PC++
	}
	return kernel.StatusRunning, nil
}

// Phased alternates between a dense write phase and a read-mostly phase,
// exercising adaptive-interval and adaptive-block-size policies with
// time-varying deltas.
type Phased struct {
	MiB          int
	PhaseIters   uint64 // iterations per phase (default 4)
	Seed         uint64
	Iterations   uint64
	PagesPerStep int
	// Regions opts into the declarative checkpoint-region API (see Dense).
	Regions bool
}

// Name implements kernel.Program.
func (p Phased) Name() string {
	if p.Regions {
		return fmt.Sprintf("phased[mib=%d,seed=%d,regions]", p.MiB, p.Seed)
	}
	return fmt.Sprintf("phased[mib=%d,seed=%d]", p.MiB, p.Seed)
}

func (p Phased) phaseIters() uint64 {
	if p.PhaseIters == 0 {
		return 4
	}
	return p.PhaseIters
}

// Init implements kernel.Program.
func (p Phased) Init(ctx *kernel.Context) error {
	ctx.Regs().G[1] = p.Iterations
	if err := mapArena(ctx, uint64(p.MiB)<<20); err != nil {
		return err
	}
	if p.Regions {
		return declareRegions(ctx, uint64(p.MiB)<<20)
	}
	return nil
}

// Step implements kernel.Program by delegating to Dense- or Sparse-like
// behaviour depending on the phase.
func (p Phased) Step(ctx *kernel.Context) (kernel.Status, error) {
	r := ctx.Regs()
	if r.G[1] != 0 && r.PC >= r.G[1] {
		ctx.Exit(0)
		return kernel.StatusExited, nil
	}
	phase := (r.PC / p.phaseIters()) % 2
	totalPages := uint64(p.MiB) << 20 >> mem.PageShift
	var buf [mem.PageSize]byte
	n := p.PagesPerStep
	if n <= 0 {
		n = 64
	}
	for i := 0; i < n; i++ {
		var pg uint64
		if phase == 0 { // dense phase: sequential full sweep
			pg = r.G[4]
		} else { // quiet phase: touch 1/32 of pages
			pg = splitmix64(p.Seed^r.PC<<20^r.G[4]) % totalPages
		}
		pageBuf(buf[:], r.PC<<32|pg)
		if err := ctx.Store(ArenaBase+mem.Addr(pg<<mem.PageShift), buf[:]); err != nil {
			return kernel.StatusExited, err
		}
		ctx.Compute(cyclesPerPage)
		mixChecksum(r, pg^phase)
		r.G[4]++
		limit := totalPages
		if phase == 1 {
			limit = totalPages / 32
			if limit == 0 {
				limit = 1
			}
		}
		if r.G[4] >= limit {
			r.G[4] = 0
			r.PC++
			break
		}
	}
	if p.Regions {
		if err := scratchStep(ctx, r.PC<<32|r.G[4]); err != nil {
			return kernel.StatusExited, err
		}
	}
	return kernel.StatusRunning, nil
}
