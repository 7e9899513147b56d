package checkpoint

import (
	"errors"
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/simos/fs"
	"repro/internal/simos/kernel"
	"repro/internal/simos/mem"
	"repro/internal/simos/proc"
	"repro/internal/simos/sig"
	"repro/internal/storage"
	"repro/internal/trace"
)

// RestoreOptions tune the restore engine. The defaults reproduce the weak
// baseline most surveyed mechanisms share (new PID, no kernel-state
// virtualization); the flags correspond to the extra capabilities UCLiK
// (PreservePID, deleted-file recovery) and ZAP (kernel-state recreation)
// advertise.
type RestoreOptions struct {
	// PreservePID reinstates the original PID (UCLiK). Fails if taken.
	PreservePID bool
	// VirtualizePID gives the restored process a fresh real PID but sets
	// its pod-virtual PID to the checkpointed identity, so getpid() is
	// stable without any claim on the real PID space — ZAP's pod design,
	// which never collides. Ignored when PreservePID is set.
	VirtualizePID bool
	// RecreateKernelState restores sockets and shared-memory segments
	// from the image (ZAP pods).
	RecreateKernelState bool
	// RestoreDeletedFiles recreates unlinked files from image contents
	// (UCLiK); without it, a descriptor to a deleted file fails restore.
	RestoreDeletedFiles bool
	// Handlers resolves handler names after a Decode (cross-simulation
	// restore); live handler maps on the image take precedence.
	Handlers map[string]*sig.Handler
	// Enqueue makes the restored process runnable immediately.
	Enqueue bool
	// Env, when non-nil, is billed for the restore work (memory copies);
	// reading the images from storage is charged separately by LoadChain.
	Env *storage.Env
	// Parallelism shards chain replay across a worker pool of that size
	// (0 or 1 = sequential). Restored memory is byte-identical at any
	// width — the replay plan resolves per-page last-writer-wins before
	// any worker runs — only the simulated restore time changes. Like
	// capture, callers opt in explicitly; defaulting to the host's core
	// count would make simulated results machine-dependent.
	Parallelism int
	// Metrics, when non-nil, receives restore.* counters (pages, bytes
	// copied, bytes pruned, extents). Latency distributions are recorded
	// by the orchestration layer, which also sees the storage read time.
	Metrics *trace.Metrics
}

// ErrNeedsChain is returned when restoring an incremental image without
// its ancestors.
var ErrNeedsChain = errors.New("checkpoint: incremental image requires its parent chain")

// LoadChain reads the image named leaf from the target and follows Parent
// links until a full image, returning the chain oldest-first. The walk is
// bounded: an empty leaf name and a corrupted chain whose parent links
// cycle both return errors wrapping ErrNeedsChain instead of panicking or
// spinning forever — a restore must fail cleanly on the worst chain a
// faulty store can serve, because it runs at the worst possible time.
func LoadChain(t storage.Target, env *storage.Env, leaf string) ([]*Image, error) {
	if leaf == "" {
		return nil, fmt.Errorf("%w: empty leaf object name", ErrNeedsChain)
	}
	if env == nil {
		env = storage.NopEnv()
	}
	var rev []*Image
	seen := make(map[string]bool)
	name := leaf
	for name != "" {
		if seen[name] {
			return nil, fmt.Errorf("%w: %w: parent links cycle back to %s (chain of %d from %s)",
				ErrNeedsChain, ErrCorrupt, name, len(rev), leaf)
		}
		seen[name] = true
		data, err := t.ReadObject(name, env)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: load %s: %w", name, err)
		}
		img, err := Decode(data)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: decode %s: %w", name, err)
		}
		rev = append(rev, img)
		if img.Mode == ModeFull {
			break
		}
		name = img.Parent
	}
	last := rev[len(rev)-1]
	if last.Mode != ModeFull {
		return nil, fmt.Errorf("%w: chain head %s is %s", ErrNeedsChain, last.ObjectName(), last.Mode)
	}
	// Reverse to oldest-first.
	out := make([]*Image, len(rev))
	for i, img := range rev {
		out[len(rev)-1-i] = img
	}
	if err := VerifyChain(out); err != nil {
		return nil, err
	}
	return out, nil
}

// LoadChainManifest reads a chain whose object names are already known
// (oldest-first), the restore fast path a supervisor-held chain manifest
// enables: targets implementing storage.BatchReader serve the whole list
// in one scheduled pass — one positioning cost instead of one seek per
// link — where LoadChain's link-by-link walk must pay a round trip per
// ancestor to discover the next name. The loaded chain is verified
// exactly like a walked one; a manifest that has drifted from what the
// store holds (a hole, a stale name, a fold that changed ancestry) fails
// verification here and the caller falls back to the walk.
func LoadChainManifest(t storage.Target, env *storage.Env, objects []string) ([]*Image, error) {
	if len(objects) == 0 {
		return nil, fmt.Errorf("%w: empty chain manifest", ErrNeedsChain)
	}
	if env == nil {
		env = storage.NopEnv()
	}
	chain, err := readChain(t, env, objects)
	if err != nil {
		return nil, err
	}
	if err := VerifyChain(chain); err != nil {
		return nil, err
	}
	return chain, nil
}

// readChain reads and decodes the named chain objects in order: from
// the objects' stored pieces when t is a storage.PieceReader (an
// erasure set's planes decode without a join), else in one batched pass
// when t is a storage.BatchReader, else one ReadObject per name. The
// result has room for one more image, so a caller holding the leaf
// separately can append it without copying.
func readChain(t storage.Target, env *storage.Env, objects []string) ([]*Image, error) {
	var pieces [][][]byte
	var blobs [][]byte
	var err error
	switch t := t.(type) {
	case storage.PieceReader:
		pieces, err = t.ReadPieces(objects, env)
	case storage.BatchReader:
		blobs, err = t.ReadBatch(objects, env)
	default:
		blobs = make([][]byte, len(objects))
		for i, name := range objects {
			if blobs[i], err = t.ReadObject(name, env); err != nil {
				return nil, fmt.Errorf("checkpoint: load %s: %w", name, err)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: load manifest: %w", err)
	}
	if pieces == nil {
		pieces = make([][][]byte, len(blobs))
		for i := range blobs {
			pieces[i] = blobs[i : i+1 : i+1]
		}
	}
	chain := make([]*Image, len(pieces), len(pieces)+1)
	for i, p := range pieces {
		img, err := DecodePieces(p)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: decode %s: %w", objects[i], err)
		}
		chain[i] = img
	}
	return chain, nil
}

// checkChainLinks verifies the parent links of an oldest-first chain.
func checkChainLinks(chain []*Image) error {
	for i := 1; i < len(chain); i++ {
		if chain[i].Parent != chain[i-1].ObjectName() {
			return fmt.Errorf("checkpoint: broken chain at %s (parent %q, want %q)",
				chain[i].ObjectName(), chain[i].Parent, chain[i-1].ObjectName())
		}
	}
	return nil
}

// restoreSkeleton rebuilds everything of a process except its memory
// contents from the leaf image: identity (PID mode), args, and the VMA
// layout. The returned cleanup undoes the process-table insertion;
// callers invoke it on any later failure. Shared between the eager
// Restore and LazyRestore, which differ only in when the contents of the
// mapped pages arrive.
func restoreSkeleton(k *kernel.Kernel, leaf *Image, opt RestoreOptions) (*proc.Process, func(), error) {
	// The program must exist on the target machine.
	if _, err := k.Registry.Lookup(leaf.Exe); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: restore: %w", err)
	}

	var p *proc.Process
	switch {
	case opt.PreservePID:
		p = proc.New(leaf.PID, leaf.PPID, leaf.Exe)
		if err := k.Procs.Insert(p); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: restore with original pid: %w", err)
		}
	case opt.VirtualizePID:
		p = k.Procs.Allocate(leaf.PPID, leaf.Exe)
		p.VPID = leaf.PID
		if leaf.VPID != 0 {
			p.VPID = leaf.VPID
		}
	default:
		p = k.Procs.Allocate(leaf.PPID, leaf.Exe)
	}
	p.Args = append([]string(nil), leaf.Args...)

	cleanup := func() { k.Procs.Remove(p.PID) }

	// Memory layout from the leaf image. A tracker may have left data
	// regions write-protected at capture time; the restored process gets
	// the region's natural protection back.
	for _, v := range leaf.VMAs {
		prot := v.Prot
		if v.Kind != mem.KindText {
			prot |= mem.ProtRW
		}
		if _, err := p.AS.Map(v.Start, v.Length, prot, v.Kind, v.Name); err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("checkpoint: restore map: %w", err)
		}
	}
	return p, cleanup, nil
}

// Restore rebuilds a process on k from an image chain (oldest-first; a
// single full image is a chain of one). The most recent image defines the
// memory layout, registers, descriptors and signal state; extents are
// applied oldest-first so later deltas overwrite earlier data.
func Restore(k *kernel.Kernel, chain []*Image, opt RestoreOptions) (*proc.Process, error) {
	if len(chain) == 0 {
		return nil, errors.New("checkpoint: empty image chain")
	}
	if chain[0].Mode != ModeFull {
		return nil, ErrNeedsChain
	}
	leaf := chain[len(chain)-1]
	if err := checkChainLinks(chain); err != nil {
		return nil, err
	}
	p, cleanup, err := restoreSkeleton(k, leaf, opt)
	if err != nil {
		return nil, err
	}
	// Contents oldest-first, resolved to per-page last-writer-wins jobs
	// before any byte moves. Extents of VMAs that no longer exist in the
	// leaf layout (unmapped since) are skipped. The same plan drives the
	// sequential and the sharded path, so restored memory is
	// byte-identical at every worker count.
	plan, err := planReplay(chain)
	if err != nil {
		cleanup()
		return nil, err
	}
	workers := opt.Parallelism
	if workers <= 1 {
		workers = 1
	}
	if workers > len(plan.jobs) && len(plan.jobs) > 0 {
		workers = len(plan.jobs)
	}
	// Copying the image back into memory costs real time on the target
	// machine: bill the provided Env, or the kernel itself by default.
	// Parallel replay divides the copy across the pool (plus its
	// fork/join overhead), exactly like the sharded capture's encode;
	// the cost is charged up-front from this goroutine because the
	// simulated clock cannot be advanced from workers.
	var bill costmodel.Biller = k
	if opt.Env != nil && opt.Env.Bill != nil {
		bill = opt.Env.Bill
	}
	bill.Charge(RestoreCost(plan.copied, workers), "restore-copy")
	if err := applyPlan(p.AS, &plan, workers); err != nil {
		cleanup()
		return nil, err
	}
	p.ReplayBytes = plan.copied
	if opt.Metrics != nil {
		c := opt.Metrics.Counters
		c.Inc("restore.images", int64(len(chain)))
		c.Inc("restore.pages", int64(len(plan.jobs)))
		c.Inc("restore.bytes_copied", int64(plan.copied))
		c.Inc("restore.bytes_pruned", int64(plan.pruned))
		c.Inc("restore.workers", int64(workers))
	}
	if err := finishRestore(k, p, leaf, opt); err != nil {
		cleanup()
		return nil, err
	}
	return p, nil
}

// finishRestore completes a restore after the memory phase: heap break,
// threads and registers, kernel-persistent state, descriptors, signal
// state, and scheduling. Shared between Restore and LazyRestore; the
// caller runs its cleanup on error.
func finishRestore(k *kernel.Kernel, p *proc.Process, leaf *Image, opt RestoreOptions) error {
	if leaf.Brk != 0 {
		if err := p.AS.SetBrk(leaf.Brk); err != nil {
			return fmt.Errorf("checkpoint: restore brk: %w", err)
		}
	}

	// Threads and registers.
	p.Threads = nil
	for _, t := range leaf.Threads {
		p.Threads = append(p.Threads, &proc.Thread{TID: t.TID, Regs: t.Regs})
	}
	if len(p.Threads) == 0 {
		return errors.New("checkpoint: image has no threads")
	}

	// Kernel-persistent state first, so descriptor and segment recreation
	// can rely on it.
	if opt.RecreateKernelState {
		for _, s := range leaf.Sockets {
			if err := k.RecreateSocket(s.ID, p.PID, s.Peer); err != nil {
				return fmt.Errorf("checkpoint: restore socket: %w", err)
			}
		}
		for key, data := range leaf.Shm {
			k.RecreateShm(key, data)
		}
	}

	// Descriptors.
	for _, f := range leaf.FDs {
		if f.Deleted {
			if !opt.RestoreDeletedFiles || f.Contents == nil {
				return fmt.Errorf("checkpoint: fd %d refers to deleted %s and contents are not available", f.FD, f.Path)
			}
			// WriteFile itself cannot fail, but it would silently replace
			// whatever now lives at the path — recreating an unlinked
			// file over a device node is never what the image meant.
			if n, lerr := k.FS.Lookup(f.Path); lerr == nil && n.Kind != fs.KindRegular {
				return fmt.Errorf("checkpoint: restore fd %d: recreate deleted %s: path now holds a %s node",
					f.FD, f.Path, n.Kind)
			}
			k.FS.WriteFile(f.Path, f.Contents)
		}
		of, err := k.FS.Open(f.Path, f.Flags&^fs.OAppend)
		if err != nil {
			return fmt.Errorf("checkpoint: restore fd %d: %w", f.FD, err)
		}
		if err := of.SeekTo(f.Offset); err != nil {
			return fmt.Errorf("checkpoint: restore fd %d: seek %s to offset %d: %w", f.FD, f.Path, f.Offset, err)
		}
		p.InstallFDAt(f.FD, of)
	}

	// Signal state.
	for _, d := range leaf.SigDisps {
		switch d.Kind {
		case DispIgnore:
			if err := p.Sig.Ignore(d.Sig); err != nil {
				return err
			}
		case DispHandler:
			h := leaf.handlers[d.Sig]
			if h == nil && opt.Handlers != nil {
				h = opt.Handlers[d.HandlerName]
			}
			if h == nil {
				// Handler code not present on this machine: disposition
				// falls back to default, as a real restart of a process
				// whose library is missing would fail later.
				continue
			}
			if err := p.Sig.SetHandler(d.Sig, h); err != nil {
				return err
			}
		}
	}
	for _, s := range leaf.SigPending {
		p.Sig.Raise(s)
	}
	for _, s := range leaf.SigBlocked {
		p.Sig.Block(s)
	}

	p.State = proc.StateStopped
	if opt.Enqueue {
		p.State = proc.StateReady
		k.Sched.Enqueue(p)
	}
	return nil
}
