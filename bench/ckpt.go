package main

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/costmodel"
	"repro/internal/simos/kernel"
	"repro/internal/storage"
	apps "repro/internal/workload"
)

var ckptStream = &workload{
	name: "ckpt-stream",
	why: "the write path as one closed-loop client: tracker, capture, encode and CRC, " +
		"erasure encode, member writes and folds do the work, and no restore runs",
	op:         "steady-state checkpoint: capture and publish of a delta onto a delta",
	simRounds:  4,
	tinyRounds: 2,
	setup:      setupCkptStream,
}

const (
	// chainLen is the captures per round: a full image, then deltas.
	chainLen = 32
	// foldEvery is how many deltas accumulate before a fold.
	foldEvery = 8
)

// ckptRun checkpoints one Sparse process into erasure-coded storage.
// Each round is one chain: a full image that retires the previous
// chain, then deltas, folded server-side every foldEvery deltas. The
// chain is restored and checked against the live process before the
// next round retires it.
type ckptRun struct {
	cfg    config
	cm     *costmodel.Model
	reg    *kernel.Registry
	st     *erasureStore
	m      *machine
	ledger *costmodel.Ledger
	env    *storage.Env
	objs   []string // the live chain, oldest first
	// leafFull is set while the chain's leaf is a full image: the head,
	// or a fold.
	leafFull bool
}

func setupCkptStream(cfg config) (roundFunc, error) {
	mib, warm := 8, uint64(16)
	if cfg.tiny {
		mib, warm = 1, 4
	}
	cm := costmodel.Default2005()
	st, err := newErasureStore(cm, cfg.tr)
	if err != nil {
		return nil, err
	}
	prog := traceProgram(apps.Sparse{MiB: mib, WriteFrac: 0.05, Seed: derive(cfg.seed, 1)}, cfg.tr)
	reg := kernel.NewRegistry()
	reg.MustRegister(prog)
	m, err := newMachine("ckpt", cm, reg, prog, warm, 0, cfg.tr)
	if err != nil {
		return nil, err
	}
	l := costmodel.NewLedger()
	cfg.rec.ledger = l
	r := &ckptRun{cfg: cfg, cm: cm, reg: reg, st: st, m: m, ledger: l, env: storage.LedgerEnv(l)}
	return r.round, nil
}

func (r *ckptRun) round(int) (float64, error) {
	rec, tr := r.cfg.rec, r.cfg.tr
	k0, l0 := r.m.k.Now(), r.ledger.Total
	prev := r.objs
	r.objs = nil
	for c := 0; c < chainLen; c++ {
		done := rec.opStart()
		if c > 0 {
			if err := r.m.step(1); err != nil {
				return 0, err
			}
		}
		if err := r.checkpoint(); err != nil {
			return 0, err
		}
		if c == 0 && len(prev) > 0 {
			tr.begin("storage.retire")
			_, _, err := storage.RetireChain(r.st.tgt, prev)
			tr.end()
			if err != nil {
				return 0, fmt.Errorf("retire: %w", err)
			}
		}
		if len(r.objs) == foldEvery+1 {
			if err := r.fold(); err != nil {
				return 0, err
			}
		}
		done()
	}
	sim := r.m.k.Now().Sub(k0) + r.ledger.Total - l0
	rec.attempted += chainLen
	if !rec.verify(r.verify) {
		rec.failed += chainLen
	}
	return sim.Millis(), nil
}

// checkpoint takes the chain's next capture: the full head when the
// chain is empty, else a delta onto its leaf.
func (r *ckptRun) checkpoint() error {
	rec, tr := r.cfg.rec, r.cfg.tr
	parent := ""
	if n := len(r.objs); n > 0 {
		parent = r.objs[n-1]
	}
	var written, logical float64
	if tr != nil {
		written, logical = tr.vals["storage.member.written_bytes"], tr.vals["storage.written_bytes"]
	}
	t0, k0, l0 := time.Now(), r.m.k.Now(), r.ledger.Total
	img, st, err := r.m.capture(r.st.tgt, r.env, parent)
	if err != nil {
		return fmt.Errorf("capture %d: %w", r.m.seq, err)
	}
	// The unit op is the steady-state checkpoint, a delta onto a delta.
	// A full image, and a delta onto one (whose publish checks the whole
	// image as its parent), are costlier ops of their own: mixing them in
	// would put the 90th percentile on the edge between the two kinds.
	// Their cost shows in wall_s and the per-layer metrics.
	if parent != "" && !r.leafFull {
		rec.host(ms(time.Since(t0)))
		rec.sim((r.m.k.Now().Sub(k0) + r.ledger.Total - l0).Millis())
	}
	r.leafFull = parent == ""
	rec.add("ckpt.encoded_bytes", float64(st.EncodedBytes))
	if tr != nil {
		rec.add("ckpt.member_bytes", tr.vals["storage.member.written_bytes"]-written)
		rec.add("ckpt.logical_bytes", tr.vals["storage.written_bytes"]-logical)
	}
	r.objs = append(r.objs, img.ObjectName())
	return nil
}

// fold compacts the chain into one full image under its leaf's name.
func (r *ckptRun) fold() error {
	tr := r.cfg.tr
	fold := func(blobs [][]byte) ([]byte, error) {
		tr.begin("checkpoint.fold")
		defer tr.end()
		return checkpoint.FoldEncodedChain(blobs)
	}
	tr.begin("storage.compact")
	st, err := storage.CompactChain(r.st.tgt, r.objs, fold, r.env)
	tr.end()
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	r.objs = []string{st.Folded}
	r.leafFull = true
	return nil
}

// verify restores the chain on a fresh machine and compares its memory
// with the live process, which has not run since the chain's leaf.
func (r *ckptRun) verify() error {
	chain, err := checkpoint.LoadChainManifest(r.st.tgt, nil, r.objs)
	if err != nil {
		return err
	}
	k := kernel.New(kernel.DefaultConfig("verify"), r.cm, r.reg)
	p, err := checkpoint.Restore(k, chain, checkpoint.RestoreOptions{Parallelism: width})
	if err != nil {
		return err
	}
	return checkSum(p.AS.Checksum(), r.m.p.AS.Checksum())
}
