package workload

import (
	"fmt"

	"repro/internal/simos/kernel"
	"repro/internal/simos/mem"
)

// Spin is a pure-CPU background load generator (E4's competing processes).
type Spin struct {
	Tag        string
	Iterations uint64
}

// Name implements kernel.Program.
func (s Spin) Name() string { return "spin[" + s.Tag + "]" }

// Init implements kernel.Program.
func (s Spin) Init(ctx *kernel.Context) error {
	ctx.Regs().G[1] = s.Iterations
	return nil
}

// Step implements kernel.Program.
func (s Spin) Step(ctx *kernel.Context) (kernel.Status, error) {
	r := ctx.Regs()
	if r.G[1] != 0 && r.PC >= r.G[1] {
		ctx.Exit(0)
		return kernel.StatusExited, nil
	}
	ctx.Compute(100_000)
	mixChecksum(r, r.PC)
	r.PC++
	return kernel.StatusRunning, nil
}

// Hooked wraps a workload with a cooperative checkpoint point invoked
// every Every iterations of the inner program — the structure of
// library-based user-level checkpointing (libckpt's ckpt_here()) and of
// VMADump's self-invoked checkpoint system call.
type Hooked struct {
	Inner kernel.Program
	Label string
	Every uint64
	// Hook runs in process context at each checkpoint point.
	Hook func(ctx *kernel.Context)
}

// Name implements kernel.Program.
func (h Hooked) Name() string { return h.Inner.Name() + "+hook:" + h.Label }

// Init implements kernel.Program.
func (h Hooked) Init(ctx *kernel.Context) error { return h.Inner.Init(ctx) }

// Step implements kernel.Program: it steps the inner program and fires
// the hook whenever the iteration counter crosses a multiple of Every.
// G[7] remembers the last iteration at which the hook fired.
func (h Hooked) Step(ctx *kernel.Context) (kernel.Status, error) {
	r := ctx.Regs()
	every := h.Every
	if every == 0 {
		every = 10
	}
	if r.PC > 0 && r.PC%every == 0 && r.G[7] != r.PC && h.Hook != nil {
		r.G[7] = r.PC
		h.Hook(ctx)
	}
	return h.Inner.Step(ctx)
}

// MultiThreaded runs N threads, each sweeping a private slice of the
// arena. The program round-robins threads internally (G[5] is the thread
// cursor); every thread's registers live in proc.Threads, so mechanisms
// that capture all threads (libtckpt, BLCR) restore it exactly, while
// single-threaded-only mechanisms must refuse it.
type MultiThreaded struct {
	MiB        int
	NThreads   int
	Iterations uint64 // per-thread sweep count
}

// Name implements kernel.Program.
func (m MultiThreaded) Name() string {
	return fmt.Sprintf("mt[mib=%d,threads=%d]", m.MiB, m.NThreads)
}

// Init implements kernel.Program.
func (m MultiThreaded) Init(ctx *kernel.Context) error {
	if m.NThreads < 2 {
		return fmt.Errorf("workload: MultiThreaded needs ≥2 threads, got %d", m.NThreads)
	}
	ctx.Regs().G[1] = m.Iterations
	for i := 1; i < m.NThreads; i++ {
		ctx.P.AddThread()
	}
	return mapArena(ctx, uint64(m.MiB)<<20)
}

// Step implements kernel.Program. Each call advances one thread by one
// page write. A thread's Regs.PC counts its completed pages; the main
// thread's G[1] is the per-thread page quota.
func (m MultiThreaded) Step(ctx *kernel.Context) (kernel.Status, error) {
	main := ctx.P.MainThread()
	quota := main.Regs.G[1]
	slicePages := (uint64(m.MiB) << 20 >> mem.PageShift) / uint64(m.NThreads)
	if slicePages == 0 {
		slicePages = 1
	}
	cursor := &main.Regs.G[5]
	allDone := true
	var buf [mem.PageSize]byte
	for range ctx.P.Threads {
		ti := *cursor % uint64(len(ctx.P.Threads))
		*cursor++
		th := ctx.P.Threads[ti]
		if quota != 0 && th.Regs.PC >= quota {
			continue
		}
		allDone = false
		pg := uint64(ti)*slicePages + th.Regs.PC%slicePages
		pageBuf(buf[:], th.Regs.PC<<32|pg)
		if err := ctx.Store(ArenaBase+mem.Addr(pg<<mem.PageShift), buf[:]); err != nil {
			return kernel.StatusExited, err
		}
		ctx.Compute(cyclesPerPage)
		// Fold per-thread progress into the shared checksum register.
		mixChecksum(&main.Regs, uint64(ti)<<48|th.Regs.PC<<12|pg)
		th.Regs.PC++
		break
	}
	if allDone && quota != 0 {
		ctx.Exit(0)
		return kernel.StatusExited, nil
	}
	return kernel.StatusRunning, nil
}

// Exit codes ResourceUser uses to report which kernel-persistent resource
// was lost across a restart (the E9 matrix reads these).
const (
	ExitOK         = 0
	ExitSocketLost = 42
	ExitPIDChanged = 43
	ExitShmLost    = 44
)

// ResourceUser exercises the kernel-persistent state of §3: it opens a
// socket, attaches a shared-memory segment, and records its PID in
// memory, then periodically validates all three. A restart that fails to
// virtualize these resources makes the program exit with the matching
// code above.
type ResourceUser struct {
	MiB        int
	Iterations uint64
	UseSocket  bool
	UseShm     bool
	CheckPID   bool
}

// Name implements kernel.Program.
func (u ResourceUser) Name() string {
	return fmt.Sprintf("resuser[sock=%t,shm=%t,pid=%t]", u.UseSocket, u.UseShm, u.CheckPID)
}

// Init implements kernel.Program. G[5] = socket id, G[6] = shm address;
// the PID is stored at the start of the arena.
func (u ResourceUser) Init(ctx *kernel.Context) error {
	mib := u.MiB
	if mib == 0 {
		mib = 1
	}
	if err := mapArena(ctx, uint64(mib)<<20); err != nil {
		return err
	}
	r := ctx.Regs()
	r.G[1] = u.Iterations
	if u.UseSocket {
		r.G[5] = uint64(ctx.SocketOpen("server:9000"))
	}
	if u.UseShm {
		addr, err := ctx.ShmAttach("resuser-seg", 4*mem.PageSize)
		if err != nil {
			return err
		}
		r.G[6] = uint64(addr)
	}
	if u.CheckPID {
		if err := ctx.Store8(ArenaBase, uint64(ctx.GetPID())); err != nil {
			return err
		}
	}
	return nil
}

// Step implements kernel.Program: compute, write a page, validate
// resources every 8 iterations.
func (u ResourceUser) Step(ctx *kernel.Context) (kernel.Status, error) {
	r := ctx.Regs()
	if r.G[1] != 0 && r.PC >= r.G[1] {
		ctx.Exit(ExitOK)
		return kernel.StatusExited, nil
	}
	var buf [mem.PageSize]byte
	pageBuf(buf[:], r.PC)
	mib := u.MiB
	if mib == 0 {
		mib = 1
	}
	// Page 0 holds the stored PID; the write loop cycles over the rest.
	totalPages := uint64(mib) << 20 >> mem.PageShift
	pg := 1 + r.PC%(totalPages-1)
	if err := ctx.Store(ArenaBase+mem.Addr(pg<<mem.PageShift), buf[:]); err != nil {
		return kernel.StatusExited, err
	}
	ctx.Compute(cyclesPerPage)
	mixChecksum(r, r.PC)
	if r.PC%8 == 7 {
		if u.UseSocket {
			if err := ctx.SocketPing(int(r.G[5])); err != nil {
				ctx.Exit(ExitSocketLost)
				return kernel.StatusExited, nil
			}
		}
		if u.CheckPID {
			stored, err := ctx.Load8(ArenaBase)
			if err != nil {
				return kernel.StatusExited, err
			}
			if stored != uint64(ctx.GetPID()) {
				ctx.Exit(ExitPIDChanged)
				return kernel.StatusExited, nil
			}
		}
		if u.UseShm {
			if !ctx.K.ShmExists("resuser-seg") {
				ctx.Exit(ExitShmLost)
				return kernel.StatusExited, nil
			}
		}
	}
	r.PC++
	return kernel.StatusRunning, nil
}

// Allocator spends alternate steps inside a non-reentrant heap function
// (the process's InNonReentrant flag stays set across the step boundary),
// modeling a malloc-heavy application. Signal-handler checkpointers whose
// handlers also use malloc deadlock against it (§3).
type Allocator struct {
	MiB        int
	Iterations uint64
}

// Name implements kernel.Program.
func (a Allocator) Name() string { return fmt.Sprintf("alloc[mib=%d]", a.MiB) }

// Init implements kernel.Program.
func (a Allocator) Init(ctx *kernel.Context) error {
	ctx.Regs().G[1] = a.Iterations
	mib := a.MiB
	if mib == 0 {
		mib = 1
	}
	return mapArena(ctx, uint64(mib)<<20)
}

// Step implements kernel.Program. Even iterations run inside the
// non-reentrant section; the flag is cleared at the start of the next
// step, so a signal delivered between steps observes it.
func (a Allocator) Step(ctx *kernel.Context) (kernel.Status, error) {
	r := ctx.Regs()
	if r.G[1] != 0 && r.PC >= r.G[1] {
		ctx.NonReentrantExit()
		ctx.Exit(0)
		return kernel.StatusExited, nil
	}
	if r.PC%2 == 0 {
		ctx.NonReentrantEnter()
		// Heap work: grow and shrink the break.
		if _, err := ctx.Sbrk(mem.PageSize); err != nil {
			return kernel.StatusExited, err
		}
		if _, err := ctx.Sbrk(-mem.PageSize); err != nil {
			return kernel.StatusExited, err
		}
	} else {
		ctx.NonReentrantExit()
	}
	var buf [512]byte
	pageBuf(buf[:], r.PC)
	mib := a.MiB
	if mib == 0 {
		mib = 1
	}
	pg := r.PC % (uint64(mib) << 20 >> mem.PageShift)
	if err := ctx.Store(ArenaBase+mem.Addr(pg<<mem.PageShift), buf[:]); err != nil {
		return kernel.StatusExited, err
	}
	ctx.Compute(20_000)
	mixChecksum(r, r.PC)
	r.PC++
	return kernel.StatusRunning, nil
}
